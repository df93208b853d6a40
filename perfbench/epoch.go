package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/par"
	"countryrank/internal/rank"
	"countryrank/internal/routing"
	"countryrank/internal/snapshot"
	"countryrank/internal/topology"
)

const (
	// epochPool is how many scale-1 world seeds the expected digests and
	// ranking hashes cover; a workload seed picks where in the pool its
	// sequence starts.
	epochPool = 16
	// setupSamples is how many times a run sets up; setup_s is the median.
	setupSamples = 3
	// mrtTimestamp is the dump time topogen writes (2021-04-01 UTC).
	mrtTimestamp = 1617235200
)

// rankdConfig is the snapshot shape rankd serves with its default flags.
var rankdConfig = snapshot.Config{MaxTopN: snapshot.DefaultMaxTopN}

// crankCountries are the countries of the paper's Tables 5–8.
var crankCountries = []countries.Code{"AU", "JP", "RU", "US"}

// worldConfig is the world rankd and crank build for a seed at scale 1.
func worldConfig(seed int64) topology.Config {
	return topology.Config{Seed: seed, StubScale: 1, VPScale: 1}
}

// epochChain is rankd's rebuild loop without the daemon: a store with the
// default history depth and a persister, fed one epoch at a time.
type epochChain struct {
	store   *snapshot.Store
	persist *snapshot.Persister
	epoch   int64
}

func newEpochChain(dir string) (*epochChain, error) {
	p, err := snapshot.NewPersister(dir, snapshot.DefaultKeepGenerations)
	if err != nil {
		return nil, err
	}
	st := snapshot.NewStore(nil)
	st.SetHistoryLimit(snapshot.DefaultHistoryEpochs)
	return &epochChain{store: st, persist: p}, nil
}

// epochResult is one epoch's output and cost.
type epochResult struct {
	snap      *snapshot.Snapshot
	wall, cpu time.Duration
}

// run builds, publishes and persists one epoch of world seed: the calls
// rankd's build closure and snapshot.Supervisor make, in their order. With
// a tracer, snapshot.Build is split into its kernel fan-out and
// snapshot.Assemble so each is timed; the digest must not change.
func (c *epochChain) run(seed int64, tr *tracer) (epochResult, error) {
	t0, cpu0 := time.Now(), selfCPU()
	c.epoch++
	opt := core.Options{Seed: seed, StubScale: 1, VPScale: 1}
	var w *topology.World
	tr.stage("topology.build", func() { w = topology.Build(worldConfig(seed)) })
	var col *routing.Collection
	var err error
	tr.stage("routing.propagate", func() { col, err = routing.BuildCollectionWith(w, opt.Routing) })
	if err != nil {
		return epochResult{}, fmt.Errorf("build collection: %w", err)
	}
	var p *core.Pipeline
	tr.stage("core.process", func() { p = core.NewPipelineFrom(w, col, opt) })
	var snap *snapshot.Snapshot
	if tr == nil {
		snap = snapshot.Build(p, c.epoch, rankdConfig)
	} else {
		snap = buildSnapshotTraced(tr, p, c.epoch, rankdConfig)
	}
	var d *snapshot.Drift
	tr.stage("snapshot.diff", func() { d = snapshot.Diff(c.store.Load(), snap) })
	tr.stage("snapshot.publish", func() { c.store.Publish(snap, d) })
	var path string
	tr.stage("snapshot.persist", func() { path, err = c.persist.Save(snap) })
	if err != nil {
		return epochResult{}, fmt.Errorf("persist epoch %d: %w", c.epoch, err)
	}
	res := epochResult{snap: snap, wall: time.Since(t0), cpu: selfCPU() - cpu0}
	tr.finish()
	if tr != nil {
		tr.count("routing.records", float64(col.NumRecords()))
		tr.count("sanitize.accept_ratio", float64(p.DS.Len())/float64(col.NumRecords()))
		body := len(snap.IndexBody())
		for _, cc := range snap.CountryCodes() {
			body += len(snap.CountryBody(cc))
		}
		tr.count("snapshot.body_kb", float64(body)/1024)
		if fi, err := os.Stat(path); err == nil {
			tr.count("snapshot.persist_kb", float64(fi.Size())/1024)
		}
	}
	return res, nil
}

// buildSnapshotTraced is snapshot.Build with its two halves timed apart:
// the per-country kernels (fanned out the same way) plus the global
// rankings, then the rendering in snapshot.Assemble.
func buildSnapshotTraced(tr *tracer, p *core.Pipeline, epoch int64, cfg snapshot.Config) *snapshot.Snapshot {
	d := snapshot.Data{Epoch: epoch}
	tr.stage("core.kernels", func() {
		list := countries.All()
		got := make([]*snapshot.CountryData, len(list))
		par.ForEach(len(list), func(i int) {
			c := list[i]
			cr := p.Country(c)
			if cr.CCI.Len() == 0 && cr.CCN.Len() == 0 && cr.AHI.Len() == 0 && cr.AHN.Len() == 0 {
				return
			}
			got[i] = &snapshot.CountryData{
				Code: c, Name: countries.Name(c),
				CCI: cr.CCI, CCN: cr.CCN, AHI: cr.AHI, AHN: cr.AHN,
			}
		})
		d.Degraded = p.CoverageInfo().Degraded
		for _, cd := range got {
			if cd != nil {
				d.Countries = append(d.Countries, *cd)
			}
		}
		ccg, ahg := p.Global()
		d.Tops = []snapshot.TopData{{Metric: "ccg", Ranking: ccg}, {Metric: "ahg", Ranking: ahg}}
	})
	var snap *snapshot.Snapshot
	tr.stage("snapshot.render", func() { snap = snapshot.Assemble(d, cfg) })
	return snap
}

// checkGolden returns "" when got is the expected value for seed, or what
// went wrong.
func checkGolden(what string, table map[int64]string, seed int64, got string) string {
	want, ok := table[seed]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no expected value for world seed %d", what, seed)
	case got != want:
		return fmt.Sprintf("%s: world seed %d gave %.12s, want %.12s", what, seed, got, want)
	}
	return ""
}

func setOpMetrics(r *report, setup, wall, cpu []float64) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("setup_s", median(setup))
	r.set("op_p50_ms", median(wall))
	r.set("op_cpu_ms", median(cpu))
	r.set("peak_rss_mb", rss)
	return nil
}

// runEpochSynth runs rankd's rebuild loop in-process at rankd's default
// scale, stepping the world seed by one per epoch as -seed-step 1 does. The
// first epoch of a process is cold and is set-up; the measured epochs
// follow it until the run's time is up.
func runEpochSynth(rc runConfig) (*report, error) {
	r := newReport()
	rc.host.Load = "sequential epochs"
	s0 := worldSeed(rc.seed, 0, epochPool)
	var setup []float64
	if !rc.trace {
		// Cold epochs need fresh processes; this one supplies the last.
		for i := 0; i < setupSamples-1; i++ {
			secs, digest, err := coldEpochChild(rc, s0, filepath.Join(rc.dir, "cold-"+strconv.Itoa(i)))
			if err != nil {
				return nil, err
			}
			r.op(checkGolden("cold epoch digest", goldenEpoch, s0, digest))
			setup = append(setup, secs)
		}
	}
	chain, err := newEpochChain(filepath.Join(rc.dir, "snap"))
	if err != nil {
		return nil, err
	}
	cold, err := chain.run(s0, nil)
	if err != nil {
		return nil, err
	}
	r.op(checkGolden("epoch digest", goldenEpoch, s0, cold.snap.Digest))
	setup = append(setup, cold.wall.Seconds())

	// The traced run keeps a second chain beside the untraced one, so both
	// diff each epoch against the same predecessor.
	var tchain *epochChain
	if rc.trace {
		if tchain, err = newEpochChain(filepath.Join(rc.dir, "snap-traced")); err != nil {
			return nil, err
		}
		tchain.store.Publish(cold.snap, nil)
		tchain.epoch = chain.epoch
	}
	var wall, cpu, twall []float64
	var traced []*tracer
	deadline := time.Now().Add(rc.seconds)
	for step := 1; step == 1 || time.Now().Before(deadline); step++ {
		if err := rc.ctx.Err(); err != nil {
			return nil, err
		}
		s := worldSeed(rc.seed, step, epochPool)
		var res, tres epochResult
		var tr *tracer
		runTraced := func() (err error) {
			tr = newTracer()
			tres, err = tchain.run(s, tr)
			return err
		}
		// Alternate which variant goes first so neither always runs on
		// the other's garbage.
		if rc.trace && step%2 == 0 {
			if err := runTraced(); err != nil {
				return nil, err
			}
		}
		if res, err = chain.run(s, nil); err != nil {
			return nil, err
		}
		r.op(checkGolden("epoch digest", goldenEpoch, s, res.snap.Digest))
		wall = append(wall, ms(res.wall))
		cpu = append(cpu, ms(res.cpu))
		if !rc.trace {
			continue
		}
		if step%2 == 1 {
			if err := runTraced(); err != nil {
				return nil, err
			}
		}
		mismatch := ""
		if tres.snap.Digest != res.snap.Digest {
			mismatch = fmt.Sprintf("traced epoch digest %.12s differs from untraced %.12s", tres.snap.Digest, res.snap.Digest)
		}
		r.op(checkGolden("traced epoch digest", goldenEpoch, s, tres.snap.Digest), mismatch)
		traced = append(traced, tr)
		twall = append(twall, ms(tres.wall))
	}
	if rc.trace {
		setEpochLayers(r, traced, wall, twall)
		return r, nil
	}
	return r, setOpMetrics(r, setup, wall, cpu)
}

// coldEpochChild runs one cold epoch in a fresh copy of this program and
// returns its wall seconds and digest.
func coldEpochChild(rc runConfig, seed int64, dir string) (float64, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	out, err := exec.CommandContext(rc.ctx, exe, "-cold-epoch", strconv.FormatInt(seed, 10), dir).Output()
	if err != nil {
		return 0, "", fmt.Errorf("cold epoch child: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 {
		return 0, "", fmt.Errorf("cold epoch child printed %q", out)
	}
	secs, err := strconv.ParseFloat(f[0], 64)
	return secs, f[1], err
}

// runColdEpochChild is the child side of coldEpochChild.
func runColdEpochChild(seed int64, dir string) error {
	if dir == "" {
		return fmt.Errorf("-cold-epoch needs a snapshot directory argument")
	}
	defer os.RemoveAll(dir)
	chain, err := newEpochChain(dir)
	if err != nil {
		return err
	}
	res, err := chain.run(seed, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%.6f %s\n", res.wall.Seconds(), res.snap.Digest)
	return nil
}

// exportMRT writes world seed's collection as one TABLE_DUMP_V2 file per
// collector into dir, as topogen does, and returns the files, their total
// size and the number of records exported.
func exportMRT(seed int64, dir string) (paths []string, size int64, records int, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	w := topology.Build(worldConfig(seed))
	col, err := routing.BuildCollectionWith(w, routing.BuildOptions{})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build collection: %w", err)
	}
	for _, c := range w.VPs.Collectors() {
		path := filepath.Join(dir, c.Name+".mrt")
		f, err := os.Create(path)
		if err != nil {
			return nil, 0, 0, err
		}
		err = routing.ExportMRT(f, col, c.Name, mrtTimestamp)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("export %s: %w", path, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, 0, 0, err
		}
		size += fi.Size()
		paths = append(paths, path)
	}
	return paths, size, col.NumRecords(), nil
}

// queryResult is one crank -mrt query's output and cost.
type queryResult struct {
	wall, cpu time.Duration
	records   int
	rejects   int64
	hash      string
}

// crankQuery is what `crank -mrt DIR AU JP RU US` computes: the world, the
// imported dumps, the core pass, and the four countries' rankings.
func crankQuery(seed int64, paths []string, mrtBytes int64, tr *tracer) (queryResult, error) {
	t0, cpu0 := time.Now(), selfCPU()
	var w *topology.World
	tr.stage("topology.build", func() { w = topology.Build(worldConfig(seed)) })
	var col *routing.Collection
	var st routing.ImportStats
	var err error
	tr.stage("routing.import", func() { col, st, err = routing.ImportMRTFiles(w, paths, routing.ImportOptions{}) })
	if err != nil {
		return queryResult{}, fmt.Errorf("import MRT: %w", err)
	}
	var p *core.Pipeline
	tr.stage("core.process", func() { p = core.NewPipelineFrom(w, col, core.Options{Seed: seed}) })
	rs := make([]*core.CountryRankings, len(crankCountries))
	tr.stage("core.kernels", func() {
		for i, c := range crankCountries {
			rs[i] = p.Country(c)
		}
	})
	res := queryResult{wall: time.Since(t0), cpu: selfCPU() - cpu0, records: col.NumRecords(), rejects: st.Rejects}
	tr.finish()
	if tr != nil {
		tr.count("routing.records", float64(col.NumRecords()))
		tr.count("routing.import_rejects", float64(st.Rejects))
		tr.count("routing.import_mb_per_s", mb(uint64(mrtBytes))/tr.spans["routing.import"].wall.Seconds())
		tr.count("sanitize.accept_ratio", float64(p.DS.Len())/float64(col.NumRecords()))
	}
	res.hash = rankingHash(rs)
	return res, nil
}

// rankingHash is the SHA-256 of every ranking's full served encoding.
func rankingHash(rs []*core.CountryRankings) string {
	h := sha256.New()
	var buf []byte
	for _, cr := range rs {
		for _, rk := range []*rank.Ranking{cr.CCI, cr.CCN, cr.AHI, cr.AHN} {
			buf = snapshot.AppendRanking(buf[:0], rk, 0)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkQuery compares a query's output with the dumps it read.
func checkQuery(q queryResult, seed int64, exported int) []string {
	var out []string
	if q.records != exported {
		out = append(out, fmt.Sprintf("imported %d records, exported %d", q.records, exported))
	}
	if q.rejects != 0 {
		out = append(out, fmt.Sprintf("import rejected %d entries", q.rejects))
	}
	return append(out, checkGolden("crank ranking hash", goldenCrank, seed, q.hash))
}

// runCrankMRT runs the crank -mrt query over one world's dumps. Set-up
// builds the world, exports its dumps and runs a warm-up query, setupSamples
// times; the measured queries follow until the run's time is up.
func runCrankMRT(rc runConfig) (*report, error) {
	r := newReport()
	rc.host.Load = "sequential queries"
	s := worldSeed(rc.seed, 0, epochPool)
	dir := filepath.Join(rc.dir, "mrt")
	var setup []float64
	var paths []string
	var size int64
	var exported int
	reps := setupSamples
	if rc.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if paths, size, exported, err = exportMRT(s, dir); err != nil {
			return nil, err
		}
		q, err := crankQuery(s, paths, size, nil)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		r.op(checkQuery(q, s, exported)...)
	}
	var wall, cpu, twall []float64
	var traced []*tracer
	deadline := time.Now().Add(rc.seconds)
	// A traced run alternates untraced and traced queries, so it needs two.
	for step := 1; step <= 1+b2i(rc.trace) || time.Now().Before(deadline); step++ {
		if err := rc.ctx.Err(); err != nil {
			return nil, err
		}
		var tr *tracer
		if rc.trace && step%2 == 0 {
			tr = newTracer()
		}
		q, err := crankQuery(s, paths, size, tr)
		if err != nil {
			return nil, err
		}
		r.op(checkQuery(q, s, exported)...)
		if tr == nil {
			wall = append(wall, ms(q.wall))
			cpu = append(cpu, ms(q.cpu))
		} else {
			traced = append(traced, tr)
			twall = append(twall, ms(q.wall))
		}
	}
	if rc.trace {
		setEpochLayers(r, traced, wall, twall)
		return r, nil
	}
	return r, setOpMetrics(r, setup, wall, cpu)
}
