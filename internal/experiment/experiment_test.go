package experiment

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// cell finds the row whose first column contains key and returns column i.
func cell(t *testing.T, tb Table, key string, col int) string {
	t.Helper()
	for _, row := range tb.Rows {
		match := false
		for _, c := range row {
			if strings.Contains(c, key) {
				match = true
				break
			}
		}
		if match {
			if col >= len(row) {
				t.Fatalf("%s: row %v has no column %d", tb.ID, row, col)
			}
			return row[col]
		}
	}
	t.Fatalf("%s: no row containing %q", tb.ID, key)
	return ""
}

func parseDurCell(t *testing.T, s string) time.Duration {
	t.Helper()
	s = strings.TrimSpace(s)
	switch {
	case strings.HasSuffix(s, "us"):
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "us"), 64)
		return time.Duration(v * float64(time.Microsecond))
	case strings.HasSuffix(s, "ms"):
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		return time.Duration(v * float64(time.Millisecond))
	case strings.HasSuffix(s, "s"):
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
		return time.Duration(v * float64(time.Second))
	}
	t.Fatalf("unparseable duration cell %q", s)
	return 0
}

func TestT1AllRowsMeetQoS(t *testing.T) {
	tables := RunT1()
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	policy, validate := tables[0], tables[1]
	if len(policy.Rows) != 9 || len(validate.Rows) != 9 {
		t.Fatalf("rows: %d policy, %d validate", len(policy.Rows), len(validate.Rows))
	}
	for _, row := range validate.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("row %q failed its QoS check: %v", row[0], row)
		}
	}
}

func TestT2AllFieldsRoundTrip(t *testing.T) {
	tb := RunT2()[0]
	if len(tb.Rows) < 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[2] != "yes" {
			t.Errorf("ACD field group %q failed codec check", row[0])
		}
	}
}

func TestF3ImplicitSavesARoundTrip(t *testing.T) {
	tb := RunF3()[0]
	// At 50ms one-way delay: explicit-2way first byte - implicit first
	// byte ~ 1 RTT = 100ms.
	var implicitFB, explicitFB time.Duration
	for _, row := range tb.Rows {
		if row[0] == "50.00ms" {
			switch row[1] {
			case "implicit":
				implicitFB = parseDurCell(t, row[2])
			case "explicit-2way":
				explicitFB = parseDurCell(t, row[2])
			}
		}
	}
	saved := explicitFB - implicitFB
	if saved < 90*time.Millisecond || saved > 110*time.Millisecond {
		t.Fatalf("implicit saved %v at 50ms delay, want ~100ms", saved)
	}
}

func TestE1ShapeHolds(t *testing.T) {
	tb := RunE1()[0]
	// At 3% loss: selective-repeat completes faster than go-back-n and
	// with far fewer retransmissions.
	var gbn, sr time.Duration
	var gbnRetx, srRetx int
	for _, row := range tb.Rows {
		if row[0] != "3.00%" {
			continue
		}
		switch row[1] {
		case "go-back-n":
			gbn = parseDurCell(t, row[2])
			gbnRetx, _ = strconv.Atoi(row[4])
		case "selective-repeat":
			sr = parseDurCell(t, row[2])
			srRetx, _ = strconv.Atoi(row[4])
		}
	}
	if sr >= gbn {
		t.Fatalf("SR (%v) not faster than GBN (%v) at 3%% loss", sr, gbn)
	}
	if srRetx >= gbnRetx {
		t.Fatalf("SR retransmits %d >= GBN %d", srRetx, gbnRetx)
	}
	// Pure FEC never retransmits.
	for _, row := range tb.Rows {
		if row[1] == "fec" {
			if row[4] != "0" {
				t.Fatalf("pure FEC retransmitted: %v", row)
			}
		}
	}
}

func TestE2Shapes(t *testing.T) {
	tables := RunE2()
	over, under := tables[0], tables[1]
	// Overweight: RDTP p99 latency far above the lightweight config.
	rdtp := parseDurCell(t, cell(t, over, "RDTP", 3))
	light := parseDurCell(t, cell(t, over, "lightweight", 3))
	if rdtp < 2*light {
		t.Fatalf("overweight p99 %v not clearly above lightweight %v", rdtp, light)
	}
	// Underweight: sender bytes scale with n for unicast, not multicast.
	var uni2, uni8, mc2, mc8 float64
	for _, row := range under.Rows {
		bytes, _ := strconv.ParseFloat(row[2], 64)
		switch {
		case row[0] == "2" && strings.Contains(row[1], "unicast"):
			uni2 = bytes
		case row[0] == "8" && strings.Contains(row[1], "unicast"):
			uni8 = bytes
		case row[0] == "2" && strings.Contains(row[1], "multicast"):
			mc2 = bytes
		case row[0] == "8" && strings.Contains(row[1], "multicast"):
			mc8 = bytes
		}
	}
	if uni8 < 3.5*uni2 {
		t.Fatalf("unicast bytes did not scale: 2->%v 8->%v", uni2, uni8)
	}
	if mc8 > 1.5*mc2 {
		t.Fatalf("multicast bytes scaled with receivers: 2->%v 8->%v", mc2, mc8)
	}
}

func TestE4AdaptiveWins(t *testing.T) {
	tb := RunE4()[0]
	static := parseDurCell(t, cell(t, tb, "static", 1))
	adaptive := parseDurCell(t, cell(t, tb, "adaptive", 1))
	if adaptive >= static {
		t.Fatalf("adaptive (%v) not faster than static (%v) after route switch", adaptive, static)
	}
	if adaptive > static/3 {
		t.Fatalf("adaptation gain too small: %v vs %v", adaptive, static)
	}
}

func TestE6TemplateCheaper(t *testing.T) {
	tb := RunE6()[0]
	cold, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	warm, _ := strconv.ParseFloat(tb.Rows[1][1], 64)
	if warm >= cold {
		t.Fatalf("template hit (%v ns) not cheaper than cold synthesis (%v ns)", warm, cold)
	}
}

func TestE7PreservationShape(t *testing.T) {
	tb := RunE7()[0]
	type key struct {
		ch    string
		heavy bool
	}
	ratio := map[key]float64{}
	for _, row := range tb.Rows {
		pct, _ := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		ratio[key{row[0], strings.Contains(row[1], "monolithic")}] = pct
	}
	// At Ethernet both keep up; at OC-12 monolithic collapses while
	// ADAPTIVE holds a large multiple.
	if ratio[key{"Ethernet 10 Mbps", true}] < 90 {
		t.Fatalf("monolithic can't even do Ethernet: %v%%", ratio[key{"Ethernet 10 Mbps", true}])
	}
	mono622 := ratio[key{"ATM 622 Mbps", true}]
	adap622 := ratio[key{"ATM 622 Mbps", false}]
	if mono622 > 10 {
		t.Fatalf("monolithic preserved %v%% at 622 Mbps — cost model broken", mono622)
	}
	if adap622 < 5*mono622 {
		t.Fatalf("ADAPTIVE (%v%%) not clearly ahead of monolithic (%v%%) at 622", adap622, mono622)
	}
}

func TestE8MembershipContinuity(t *testing.T) {
	tb := RunE8()[0]
	final := tb.Rows[len(tb.Rows)-1][2]
	// The stay-throughout member must have delivered the vast majority.
	if !strings.Contains(final, "loss") {
		t.Fatalf("final row: %v", final)
	}
	// Loss percentage parse: "...(X.XX% loss)..."
	i := strings.Index(final, "(")
	j := strings.Index(final, "% loss")
	if i < 0 || j < 0 {
		t.Fatalf("final row format: %q", final)
	}
	loss, _ := strconv.ParseFloat(final[i+1:j], 64)
	if loss > 5 {
		t.Fatalf("host-2 lost %v%% across churn", loss)
	}
}

func TestRunAllParallelCoversEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	tables := RunAllParallel(4)
	ids := map[string]bool{}
	for _, tb := range tables {
		ids[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.ID)
		}
		if r := tb.Render(); !strings.Contains(r, tb.Title) {
			t.Errorf("%s: render missing title", tb.ID)
		}
	}
	for _, want := range []string{"T1a", "T1b", "T2", "F2", "F3", "E1", "E2a", "E2b", "E3", "E4", "E6", "E7", "E8", "A1", "A2", "A3"} {
		if !ids[want] {
			t.Errorf("missing table %s (got %v)", want, ids)
		}
	}
}

func TestA1DelayedAcksHalveAckTraffic(t *testing.T) {
	tb := RunA1()[0]
	imm, _ := strconv.Atoi(cell(t, tb, "immediate", 2))
	delayed, _ := strconv.Atoi(cell(t, tb, "5.00ms", 2))
	if delayed > imm*6/10 {
		t.Fatalf("delayed acks sent %d vs immediate %d — coalescing ineffective", delayed, imm)
	}
	immDone := parseDurCell(t, cell(t, tb, "immediate", 1))
	delDone := parseDurCell(t, cell(t, tb, "5.00ms", 1))
	if delDone > immDone*11/10 {
		t.Fatalf("delayed acks cost completion time: %v vs %v", delDone, immDone)
	}
}

func TestA2OverheadFallsWithGroupSize(t *testing.T) {
	tb := RunA2()[0]
	parse := func(k string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(cell(t, tb, k, 1), "%"), 64)
		return v
	}
	if !(parse("2") > parse("8") && parse("8") > parse("32")) {
		t.Fatalf("parity overhead not monotone in k: %v %v %v", parse("2"), parse("8"), parse("32"))
	}
}

func TestA3ThrottleWorthIt(t *testing.T) {
	tb := RunA3()[0]
	on, _ := strconv.Atoi(cell(t, tb, "enabled", 2))
	off, _ := strconv.Atoi(cell(t, tb, "disabled", 2))
	if off < on*5 {
		t.Fatalf("disabling the throttle only raised retransmissions %d -> %d", on, off)
	}
	onDone := parseDurCell(t, cell(t, tb, "enabled", 1))
	offDone := parseDurCell(t, cell(t, tb, "disabled", 1))
	if offDone < onDone {
		t.Fatalf("throttle-off finished faster (%v vs %v) — guard not justified", offDone, onDone)
	}
}
