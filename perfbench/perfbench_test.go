package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	orig := slices.Clone(xs)
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.1, 1}, {0.11, 2}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !slices.Equal(xs, orig) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{42}, 0.99); got != 42 {
		t.Errorf("single value: got %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: got %v", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of four = %v, want the lower middle value 2", got)
	}
}

// fakeClock advances only when slept on or when a request "takes" time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopAccountsFromSchedule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := time.Millisecond

	// A server that keeps up: every request is sent on time.
	clk := &fakeClock{now: t0}
	got := runSlots(context.Background(), clk, t0, 10*ms, t0.Add(50*ms), func() string {
		clk.now = clk.now.Add(2 * ms)
		return ""
	})
	if len(got) != 5 {
		t.Fatalf("sent %d requests in 50ms at one per 10ms, want 5", len(got))
	}
	for i, s := range got {
		if s.lag != 0 || s.svc != 2*ms || s.lat != 2*ms {
			t.Errorf("on time, request %d: lag %v svc %v lat %v, want 0, 2ms, 2ms", i, s.lag, s.svc, s.lat)
		}
	}

	// A server slower than the schedule: each request waits for the one
	// before it, and its latency includes that wait.
	clk = &fakeClock{now: t0}
	got = runSlots(context.Background(), clk, t0, 10*ms, t0.Add(40*ms), func() string {
		clk.now = clk.now.Add(25 * ms)
		return ""
	})
	if len(got) != 4 {
		t.Fatalf("sent %d requests, want 4: an open loop keeps its schedule", len(got))
	}
	for i, s := range got {
		wantLag := time.Duration(i) * 15 * ms // sent at 25i ms, due at 10i ms
		if s.lag != wantLag || s.svc != 25*ms || s.lat != wantLag+25*ms {
			t.Errorf("backlogged, request %d: lag %v svc %v lat %v, want %v, 25ms, %v",
				i, s.lag, s.svc, s.lat, wantLag, wantLag+25*ms)
		}
	}

	// Failures are kept with their timing.
	clk = &fakeClock{now: t0}
	got = runSlots(context.Background(), clk, t0, 10*ms, t0.Add(10*ms), func() string { return "boom" })
	if len(got) != 1 || got[0].problem != "boom" {
		t.Errorf("failed request not recorded: %+v", got)
	}
}

func TestETagBodyCheck(t *testing.T) {
	body := []byte(`{"country":"AU"}`)
	sum := sha256.Sum256(body)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	if !etagMatchesBody(etag, body) {
		t.Fatal("the quoted SHA-256 of a body did not match it")
	}
	if etagMatchesBody(hex.EncodeToString(sum[:]), body) {
		t.Error("an unquoted ETag matched")
	}
	if etagMatchesBody(etag, []byte(`{"country":"JP"}`)) {
		t.Error("another body matched the ETag")
	}

	g := &genWorker{verified: map[string][]byte{}}
	if !g.bodyMatches(etag, body) {
		t.Fatal("first check of a good body failed")
	}
	if !g.bodyMatches(etag, slices.Clone(body)) {
		t.Error("a body equal to a checked one failed")
	}
	if g.bodyMatches(etag, []byte(`{"country":"JP"}`)) {
		t.Error("a different body passed under an ETag already checked")
	}

	if p := check304("/v1/countries/AU", etag, etag); p != "" {
		t.Errorf("matching 304 failed: %s", p)
	}
	if p := check304("/v1/countries/AU", "", etag); p == "" {
		t.Error("a 304 to a request without If-None-Match passed")
	}
	if p := check304("/v1/countries/AU", `"other"`, etag); p == "" {
		t.Error("a 304 carrying another ETag passed")
	}
}

func TestParseStatCPU(t *testing.T) {
	// Field 2 holds spaces and parentheses; utime=250 and stime=50 ticks.
	stat := []byte("4242 (rank d) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 100 1000 200\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (rankd) S 1 2")); err == nil {
		t.Error("truncated stat parsed")
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("stat without a command field parsed")
	}

	status := []byte("Name:\trankd\nVmPeak:\t 2000 kB\nVmHWM:\t  153600 kB\nVmRSS:\t 1000 kB\n")
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 153600 {
		t.Errorf("VmHWM = %d, %v; want 153600", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key found")
	}
}

func TestParseCPUSteal(t *testing.T) {
	steal, total, err := parseCPUSteal([]byte("cpu  100 5 20 800 10 0 5 60 7 0\ncpu0 50 2 10 400 5 0 2 30 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if steal != 60 || total != 1000 {
		t.Errorf("steal %d total %d, want 60 and 1000", steal, total)
	}
	if _, _, err := parseCPUSteal([]byte("intr 1 2 3\n")); err == nil {
		t.Error("a file without a cpu line parsed")
	}
}

func TestPerSecondMediansIgnoreAStalledSecond(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var samples []reqSample
	for sec := 0; sec < 5; sec++ {
		for i := 0; i < 100; i++ {
			lat := time.Millisecond
			if sec == 2 {
				lat = 300 * time.Millisecond // the host lost its CPUs
			}
			due := t0.Add(time.Duration(sec)*time.Second + time.Duration(i)*10*time.Millisecond)
			samples = append(samples, reqSample{due: due, lat: lat})
		}
	}
	samples = append(samples, reqSample{due: t0.Add(4500 * time.Millisecond), lat: time.Millisecond, problem: "status 500"})
	ws := perSecond(samples)
	if len(ws) != 5 {
		t.Fatalf("%d windows, want 5", len(ws))
	}
	var p50s []float64
	for _, w := range ws {
		p50s = append(p50s, median(w))
	}
	if got := median(p50s); got != 1 {
		t.Errorf("median of per-second p50s = %vms, want 1ms", got)
	}
	if got := slices.Max(ws[4]); got != ms(requestTimeout) {
		t.Errorf("a failed request counts %vms, want the %v timeout", got, requestTimeout)
	}
}

func TestPromHistogramDelta(t *testing.T) {
	before, err := parseProm(`# HELP countryrank_rankd_country_seconds x
# TYPE countryrank_rankd_country_seconds histogram
countryrank_rankd_country_seconds_bucket{le="0.001"} 90
countryrank_rankd_country_seconds_bucket{le="+Inf"} 100
countryrank_rankd_country_seconds_sum 0.002
countryrank_rankd_country_seconds_count 100
countryrank_rankd_top_seconds_sum 0.001
countryrank_rankd_top_seconds_count 50
countryrank_go_gc_pause_seconds_total 0.5
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(`countryrank_rankd_country_seconds_sum 0.012
countryrank_rankd_country_seconds_count 200
countryrank_rankd_top_seconds_sum 0.006
countryrank_rankd_top_seconds_count 150 1700000000000
countryrank_rankd_snapshot_seconds_sum 0.001
countryrank_rankd_snapshot_seconds_count 10
`)
	if err != nil {
		t.Fatal(err)
	}
	if v := before[`countryrank_rankd_country_seconds_bucket{le="+Inf"}`]; v != 100 {
		t.Errorf("labelled series = %v, want 100", v)
	}
	sum, count := histDelta(before, after, "countryrank_rankd_country_seconds",
		"countryrank_rankd_top_seconds", "countryrank_rankd_snapshot_seconds")
	if count != 210 || sum < 0.015999 || sum > 0.016001 {
		t.Errorf("delta sum %v count %v, want 0.016 and 210", sum, count)
	}
	if _, err := parseProm("broken_metric\n"); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestWorldSeedStaysInPool(t *testing.T) {
	for _, seed := range []int64{-17, -1, 0, 1, 15, 16, 1 << 40} {
		for step := 0; step < 40; step++ {
			if s := worldSeed(seed, step, epochPool); s < 1 || s > epochPool {
				t.Fatalf("worldSeed(%d, %d) = %d, outside 1..%d", seed, step, s, epochPool)
			}
		}
	}
	if worldSeed(3, 1, epochPool) != worldSeed(4, 0, epochPool) {
		t.Error("a step does not advance the world seed by one")
	}
}

// Perfbench runs every workload BENCHMARK.json lists and prints only the
// metrics it declares.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which perfbench does not run", w.Name)
		}
	}
	r := newReport()
	r.set("not.declared", 1)
	if err := r.emit(spec, true, &hostInfo{}); err == nil {
		t.Error("an undeclared metric was printed")
	}
	if err := newReport().emit(spec, false, &hostInfo{}); err == nil {
		t.Error("a result without its end-to-end metrics was printed")
	}
}

func TestServeGoldenCoversRollover(t *testing.T) {
	// A rollover run starts at a pool seed and steps one world per build.
	for s := int64(1); s <= serveGoldenSeeds; s++ {
		if _, ok := goldenServe[s]; !ok {
			t.Fatalf("no expected serve digest for world seed %d", s)
		}
	}
	for s := int64(1); s <= epochPool; s++ {
		if goldenEpoch[s] == "" || goldenCrank[s] == "" {
			t.Fatalf("no expected epoch digest or crank hash for world seed %d", s)
		}
	}
}
