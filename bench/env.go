package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment is recorded in every result file: a number without it cannot
// be compared with anything.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Date       string `json:"date"`
	Network    string `json:"network"`
}

// prepareProcess pins the load shape every workload shares and refuses a
// poisoned message pool, which changes the cost being measured.
func prepareProcess() error {
	if os.Getenv("ADAPTIVE_MSG_POISON") == "1" {
		return fmt.Errorf("bench: ADAPTIVE_MSG_POISON=1 is set; poison mode changes the cost being measured, unset it")
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	if err := checkStampLayout(); err != nil {
		return err
	}
	return checkWireLayout()
}

func currentEnvironment(seed int64) environment {
	return environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Seed:       seed,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Network:    "live workloads cross the host's loopback interface, not a real link; sim workloads cross no network at all",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checkout: the driver's checkouts are not git repositories,
// so a missing git answer is "unknown", not an error.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
