package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden reports under testdata/")

// TestReportGolden pins what the command prints, byte for byte: the default
// flag-built transfer and `-scenario <f> -metrics` for every scenario shipped
// under scenarios/. Every number in these reports is virtual-time arithmetic
// on a seeded simulation, so any difference is a behaviour change in the rig
// or the stack under it. `make golden-update` rewrites the files.
func TestReportGolden(t *testing.T) {
	cases := map[string][]string{"default": nil}
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	for _, f := range files {
		name := "scenario-" + strings.TrimSuffix(filepath.Base(f), ".json")
		cases[name] = []string{"-scenario", f, "-metrics"}
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(args, &got); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("report differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
			}
		})
	}
}

// TestBadArgumentsReturnErrors: a value or flag the command does not know
// fails the run with an error and prints no report — it must not exit the
// process, which is also the golden test's process.
func TestBadArgumentsReturnErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-recovery", "bogus"},
		{"-conn", "bogus"},
		{"-order", "bogus"},
		{"-no-such-flag"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q before failing", args, out.Bytes())
		}
	}
}
