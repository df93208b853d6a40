package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"countryrank/internal/snapshot"
)

const (
	// serveRate sits below the knee measured with two connections on a
	// 2-CPU host: p99 held under 2 ms at 5k req/s and became unstable at 8k.
	serveRate = 4000
	// rolloverRate leaves the rebuilds most of the CPU, as a daemon
	// serving while it rebuilds would.
	rolloverRate = 500
	genConns     = 2
	// revalidateShare of the requests that have an ETag (country and top
	// pages) send the last one seen as If-None-Match.
	revalidateShare = 0.5
	maxTopN         = 10
	requestTimeout  = 10 * time.Second
	warmup          = 500 * time.Millisecond
	readyTimeout    = 2 * time.Minute
	// handlerPassTime is how long the in-process handler pass runs.
	handlerPassTime = 500 * time.Millisecond
)

// rankdArgs are rankd's flags for the serving workloads: a scale-0.4 world
// with the production-shaped observability flags from the README and a
// snapshot directory. rollover adds back-to-back rebuilds of a new world
// each epoch.
func rankdArgs(addr string, seed int64, dir string, rollover bool) []string {
	args := []string{
		"-addr", addr, "-seed", strconv.FormatInt(seed, 10), "-scale", "0.4", "-vpscale", "0.5",
		"-access-log", filepath.Join(dir, "access.log"), "-access-log-sample", "100", "-access-log-slow", "50ms",
		"-trace-sample", "0.01", "-slo", "default", "-snapshot-dir", filepath.Join(dir, "snap"),
	}
	if rollover {
		// A refresh shorter than one build keeps a trigger pending, so
		// builds run back to back.
		args = append(args, "-seed-step", "1", "-refresh", "250ms")
	}
	return args
}

func runServe(rc runConfig) (*report, error)    { return runServing(rc, serveRate, false) }
func runRollover(rc runConfig) (*report, error) { return runServing(rc, rolloverRate, true) }

// runServing starts rankd setupSamples times from cold, keeping the last,
// then drives it with an open loop at rate for the run's time.
func runServing(rc runConfig, rate float64, rollover bool) (*report, error) {
	r := newReport()
	rc.host.Load, rc.host.RatePerS, rc.host.Conns = "open loop", rate, genConns
	seed := worldSeed(rc.seed, 0, epochPool)

	// Built before any set-up is timed, so set-up measures the daemon
	// alone and each tree measures its own daemon.
	bin := filepath.Join(rc.dir, "rankd")
	build := exec.CommandContext(rc.ctx, "go", "build", "-o", bin, "./cmd/rankd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("build rankd: %w", err)
	}

	var setup []float64
	var d *rankd
	for i := 0; i < setupSamples; i++ {
		var err error
		var took time.Duration
		d, took, err = startRankd(rc.ctx, bin, filepath.Join(rc.dir, "rankd-"+strconv.Itoa(i)), seed, rollover)
		if err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
		if i < setupSamples-1 {
			d.stop()
			if err := os.RemoveAll(d.dir); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		d.stop()
		os.RemoveAll(d.dir)
	}()

	ccs, tops, err := discover(d.base)
	if err != nil {
		return nil, err
	}
	workers := make([]*genWorker, genConns)
	for j := range workers {
		workers[j] = newGenWorker(d.base, rc.seed*genConns+int64(j), ccs, tops, seed)
	}
	// The generator's own GC would stall its sends; this process runs no
	// program code in the serving workloads, so let its heap grow instead.
	debug.SetGCPercent(1000)
	warm := runLoad(rc.ctx, workers, rate, warmup)
	for _, s := range warm {
		r.op(s.problem)
	}

	var m0, m1 map[string]float64
	if rc.trace {
		if m0, err = scrape(d.base); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	samples := runLoad(rc.ctx, workers, rate, rc.seconds)
	if err := rc.ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	if rc.trace {
		if m1, err = scrape(d.base); err != nil {
			return nil, err
		}
	}
	d.stop()

	var lat, svc, lag []float64
	var completed int
	for _, s := range samples {
		r.op(s.problem)
		if s.problem == "" {
			completed++
			svc = append(svc, us(s.svc))
		}
		lat = append(lat, s.latMS())
		lag = append(lag, us(s.lag))
	}
	if completed == 0 {
		return nil, fmt.Errorf("no request completed; first failure: %s", r.problems[0])
	}
	epochs := map[int64]string{}
	var n304, shed int
	for _, w := range workers {
		n304 += w.n304
		shed += w.shed
		for e, dg := range w.epochs {
			if prev, ok := epochs[e]; ok && prev != dg {
				r.problem(fmt.Sprintf("epoch %d served as two digests", e))
			}
			epochs[e] = dg
		}
	}
	if rollover && len(epochs) < 2 {
		r.problem(fmt.Sprintf("the served snapshot never rolled over (epochs seen: %d)", len(epochs)))
	}

	if !rc.trace {
		r.set("setup_s", median(setup))
		var p50s []float64
		for _, w := range perSecond(samples) {
			p50s = append(p50s, median(w))
		}
		r.set("op_p50_ms", median(p50s))
		r.set("op_cpu_ms", ms(cpu1-cpu0)/float64(completed))
		r.set("peak_rss_mb", rss)
		return r, nil
	}
	sum, count := histDelta(m0, m1, "countryrank_rankd_country_seconds",
		"countryrank_rankd_top_seconds", "countryrank_rankd_snapshot_seconds")
	serverUS := 1e6 * sum / max(count, 1)
	r.set("rankd.server_us", serverUS)
	r.set("serve.lat_p95_ms", percentile(lat, 0.95))
	r.set("serve.lat_p99_ms", percentile(lat, 0.99))
	r.set("client.service_p50_us", median(svc))
	r.set("net.transport_us", median(svc)-serverUS)
	r.set("gen.lag_p50_us", median(lag))
	r.set("gen.lag_p99_us", percentile(lag, 0.99))
	r.set("serve.revalidated_share", float64(n304)/float64(completed))
	r.set("serve.failed", float64(len(samples)-completed))
	r.set("serve.shed", float64(shed))
	r.set("rankd.gc_pause_ms", 1e3*(m1["countryrank_go_gc_pause_seconds_total"]-m0["countryrank_go_gc_pause_seconds_total"]))
	r.set("rankd.builds", m1["countryrank_rankd_builds_total"]-m0["countryrank_rankd_builds_total"])
	r.set("rankd.build_failures", m1["countryrank_rankd_build_failures_total"]-m0["countryrank_rankd_build_failures_total"])

	ns, allocs, err := handlerPass(filepath.Join(d.dir, "snap"), rc.seed, handlerPassTime)
	if err != nil {
		return nil, err
	}
	r.set("handler.ns_per_req", ns)
	r.set("handler.allocs_per_req", allocs)
	return r, nil
}

// rankd is one running daemon.
type rankd struct {
	cmd     *exec.Cmd
	dir     string
	base    string
	exited  chan struct{}
	waitErr error // set before exited closes
}

// startRankd starts rankd with its files under dir and returns once it
// answers /v1/snapshot with 200, with the time that took from exec.
func startRankd(ctx context.Context, bin, dir string, seed int64, rollover bool) (*rankd, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(dir, "rankd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, rankdArgs(addr, seed, dir, rollover)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start rankd: %w", err)
	}
	d := &rankd{cmd: cmd, dir: dir, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		if ok, err := d.ready(client); ok {
			took := time.Since(t0)
			client.CloseIdleConnections()
			return d, took, nil
		} else if err != nil || ctx.Err() != nil || time.Since(t0) > readyTimeout {
			d.stop()
			if err == nil {
				err = fmt.Errorf("not ready after %s", time.Since(t0).Round(time.Second))
			}
			log, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("rankd: %w; log tail:\n%s", err, lastBytes(log, 2000))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ready reports whether /v1/snapshot answers 200; err is set once the
// process has exited.
func (d *rankd) ready(client *http.Client) (bool, error) {
	select {
	case <-d.exited:
		return false, fmt.Errorf("exited before serving: %v", d.waitErr)
	default:
	}
	resp, err := client.Get(d.base + "/v1/snapshot")
	if err != nil {
		return false, nil
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// stop terminates rankd and waits for it. It may be called more than once.
func (d *rankd) stop() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
}

func lastBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// freeAddr picks a free loopback port for rankd.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// discover reads the served countries and top metrics from /v1/snapshot.
func discover(base string) (ccs, tops []string, err error) {
	resp, err := http.Get(base + "/v1/snapshot")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var meta struct {
		Countries []string `json:"countries"`
		Tops      []string `json:"tops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return nil, nil, fmt.Errorf("decode /v1/snapshot: %w", err)
	}
	if len(meta.Countries) == 0 || len(meta.Tops) == 0 {
		return nil, nil, fmt.Errorf("snapshot serves %d countries and %d tops", len(meta.Countries), len(meta.Tops))
	}
	return meta.Countries, meta.Tops, nil
}

// scrape reads rankd's /metrics.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(b))
}

// pickRequest draws one request of the mix: 70% a country page uniform
// over the served countries, 25% a global top-n with n uniform in
// [1, maxTopN], 5% the snapshot index. eligible marks the pages a client
// would revalidate.
func pickRequest(rng *rand.Rand, ccs, tops []string) (path string, eligible bool) {
	switch p := rng.Float64(); {
	case p < 0.70:
		return "/v1/countries/" + ccs[rng.Intn(len(ccs))], true
	case p < 0.95:
		return "/v1/top/" + tops[rng.Intn(len(tops))] + "?n=" + strconv.Itoa(1+rng.Intn(maxTopN)), true
	}
	return "/v1/snapshot", false
}

// reqSample is one request as the generator saw it.
type reqSample struct {
	due     time.Time
	lat     time.Duration // due time to last body byte
	svc     time.Duration // actual send to last body byte
	lag     time.Duration // how late the generator sent it
	problem string        // empty when the request succeeded and checked out
}

// latMS is the from-schedule latency in milliseconds. A failed request
// misses any latency limit, so it counts as at least the client timeout.
func (s reqSample) latMS() float64 {
	if s.problem != "" {
		return ms(max(s.lat, requestTimeout))
	}
	return ms(s.lat)
}

// perSecond groups the from-schedule latencies (ms) by the second of the
// run each request was due in. op_p50_ms is the median over these seconds
// of each second's median: the VM this benchmark runs on sometimes loses
// its CPUs to the hypervisor for seconds at a time, and a request path
// measured through such a stall reads several times slower. The run's
// overall p95 and p99 (serve.lat_p95_ms, serve.lat_p99_ms) still show every
// stall.
func perSecond(samples []reqSample) [][]float64 {
	if len(samples) == 0 {
		return nil
	}
	first := slices.MinFunc(samples, func(a, b reqSample) int { return a.due.Compare(b.due) }).due
	var out [][]float64
	for _, s := range samples {
		i := int(s.due.Sub(first) / time.Second)
		for len(out) <= i {
			out = append(out, nil)
		}
		out[i] = append(out[i], s.latMS())
	}
	return slices.DeleteFunc(out, func(w []float64) bool { return len(w) == 0 })
}

// clock is the time source of the open loop; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// realClock sleeps with nanosleep(2) rather than time.Sleep. When a Go
// process is idle its timers fire from epoll_wait, whose timeout is whole
// milliseconds, so time.Sleep(200µs) wakes about a millisecond later and
// the generator, not rankd, would set the from-schedule latency. A blocked
// nanosleep holds its thread, which is harmless here: a worker sleeps only
// while its connection is idle.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
	}
}

// runSlots runs one connection's share of an open-loop schedule: request k
// is due at first + k·step, up to end. A request is sent at its due time,
// or at once when earlier requests kept the connection busy past it, and
// its latency counts from the due time, so a stall is charged to every
// request queued behind it.
func runSlots(ctx context.Context, clk clock, first time.Time, step time.Duration, end time.Time, send func() string) []reqSample {
	var out []reqSample
	for k := 0; ; k++ {
		due := first.Add(time.Duration(k) * step)
		if !due.Before(end) || ctx.Err() != nil {
			return out
		}
		clk.SleepUntil(due)
		sent := clk.Now()
		problem := send()
		done := clk.Now()
		out = append(out, reqSample{due: due, lat: done.Sub(due), svc: done.Sub(sent), lag: sent.Sub(due), problem: problem})
	}
}

// runLoad drives every worker on its own connection for d at a combined
// rate, their slots interleaved, and returns all samples.
func runLoad(ctx context.Context, workers []*genWorker, rate float64, d time.Duration) []reqSample {
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	out := make([][]reqSample, len(workers))
	var wg sync.WaitGroup
	for j, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[j] = runSlots(ctx, realClock{}, start.Add(time.Duration(j)*gap), gap*time.Duration(len(workers)), end, w.send)
		}()
	}
	wg.Wait()
	var all []reqSample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// genWorker owns one keep-alive connection, its request stream and the
// ETags it has seen.
type genWorker struct {
	client    *http.Client
	base      string
	rng       *rand.Rand
	ccs, tops []string
	seed      int64             // rankd's world seed at epoch 1
	etags     map[string]string // path → last ETag seen
	verified  map[string][]byte // ETag → a body already hashed to it
	buf       bytes.Buffer
	epochs    map[int64]string // epoch → digest, from /v1/snapshot
	n304      int
	shed      int
}

func newGenWorker(base string, seed int64, ccs, tops []string, rankdSeed int64) *genWorker {
	return &genWorker{
		client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		base: base, rng: rand.New(rand.NewSource(seed)), ccs: ccs, tops: tops, seed: rankdSeed,
		etags: map[string]string{}, verified: map[string][]byte{}, epochs: map[int64]string{},
	}
}

// send makes the next request of the mix and checks the answer. It returns
// "" or what was wrong.
func (g *genWorker) send() string {
	path, eligible := pickRequest(g.rng, g.ccs, g.tops)
	req, err := http.NewRequest(http.MethodGet, g.base+path, nil)
	if err != nil {
		return err.Error()
	}
	inm := ""
	if eligible && g.rng.Float64() < revalidateShare {
		if inm = g.etags[path]; inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return fmt.Sprintf("%s: %v", path, err)
	}
	g.buf.Reset()
	_, err = g.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Sprintf("%s: read body: %v", path, err)
	}
	etag := resp.Header.Get("ETag")
	switch resp.StatusCode {
	case http.StatusOK:
		if !g.bodyMatches(etag, g.buf.Bytes()) {
			return fmt.Sprintf("%s: body does not hash to ETag %s", path, etag)
		}
		g.etags[path] = etag
		if path == "/v1/snapshot" {
			return g.checkIndex(g.buf.Bytes())
		}
		return ""
	case http.StatusNotModified:
		g.n304++
		return check304(path, inm, etag)
	case http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") != "" {
			g.shed++
		}
	}
	return fmt.Sprintf("%s: status %d", path, resp.StatusCode)
}

// bodyMatches reports whether body's SHA-256 is the quoted ETag. A body
// equal to one already checked against the same ETag needs no hash.
func (g *genWorker) bodyMatches(etag string, body []byte) bool {
	if known, ok := g.verified[etag]; ok {
		return bytes.Equal(known, body)
	}
	if !etagMatchesBody(etag, body) {
		return false
	}
	g.verified[etag] = bytes.Clone(body)
	return true
}

// etagMatchesBody reports whether etag is the quoted hex SHA-256 of body.
func etagMatchesBody(etag string, body []byte) bool {
	sum := sha256.Sum256(body)
	return etag == `"`+hex.EncodeToString(sum[:])+`"`
}

// check304 checks that a 304 answers an If-None-Match naming the ETag it
// carries.
func check304(path, inm, etag string) string {
	if inm == "" || etag != inm {
		return fmt.Sprintf("%s: 304 with ETag %q answers If-None-Match %q", path, etag, inm)
	}
	return ""
}

// checkIndex checks the /v1/snapshot page: epoch e is rankd's world seed
// plus e-1, so its digest must be that world's expected digest.
func (g *genWorker) checkIndex(body []byte) string {
	var idx struct {
		Epoch  int64  `json:"epoch"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		return fmt.Sprintf("/v1/snapshot: %v", err)
	}
	g.epochs[idx.Epoch] = idx.Digest
	return checkGolden("served digest", goldenServe, g.seed+idx.Epoch-1, idx.Digest)
}

// handlerPass serves the request mix in-process, without HTTP, from the
// newest snapshot rankd persisted in dir, and returns the handler's
// nanoseconds and heap allocations per request.
func handlerPass(dir string, seed int64, d time.Duration) (nsPerReq, allocsPerReq float64, err error) {
	gens, err := filepath.Glob(filepath.Join(dir, "*.csnap"))
	if err != nil || len(gens) == 0 {
		return 0, 0, fmt.Errorf("no persisted snapshot in %s (%v)", dir, err)
	}
	sort.Strings(gens)
	snap, err := snapshot.LoadFile(gens[len(gens)-1])
	if err != nil {
		return 0, 0, err
	}
	h := snapshot.NewHandler(snapshot.NewStore(snap))
	w := &nopWriter{hdr: http.Header{}}
	rng := rand.New(rand.NewSource(seed))
	etags := map[string]string{}
	reqs := make([]*http.Request, 4096)
	for i := range reqs {
		path, eligible := pickRequest(rng, snap.CountryCodes(), snap.TopMetrics())
		u, err := url.Parse(path)
		if err != nil {
			return 0, 0, err
		}
		req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}}
		if eligible && rng.Float64() < revalidateShare && etags[path] != "" {
			req.Header.Set("If-None-Match", etags[path])
		}
		h.ServeHTTP(w, req)
		etags[path] = w.hdr.Get("Etag")
		reqs[i] = req
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		for _, req := range reqs {
			h.ServeHTTP(w, req)
		}
		n += len(reqs)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// nopWriter is a ResponseWriter that keeps one header map and discards the
// body, so the handler pass measures the handler alone.
type nopWriter struct {
	hdr  http.Header
	code int
}

func (w *nopWriter) Header() http.Header         { return w.hdr }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(code int)        { w.code = code }
