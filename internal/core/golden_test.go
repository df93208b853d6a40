package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/rank"
	"countryrank/internal/routing"
	"countryrank/internal/sanitize"
	"countryrank/internal/snapshot"
	"countryrank/internal/topology"
)

// goldenCore is the pinned output of one core pass: the snapshot digest,
// the Table 1 accounting, the dense-id order and the rankings of the
// paper's Tables 5–8 countries.
type goldenCore struct {
	digest   string
	stats    sanitize.Stats
	asnOf    string // SHA-256 of ASNOf, 4 big-endian bytes per ASN
	rankings string // SHA-256 of AppendRanking over CCI, CCN, AHI, AHN, CTI
}

// goldenCoreWant pins the core pass byte for byte, so a refactor of the
// sanitizer, the interner or the chain set-up can prove it changed nothing.
// The constants were captured before the per-path core pass landed. If a
// change is meant to alter them, regenerate with
//
//	go test ./internal/core -run TestGoldenCorePass -v
//
// and paste the printed "got" literals here.
var goldenCoreWant = map[string]goldenCore{
	"20210401/direct": {
		digest:   "2a2a6a1f00145455dd121e2008804fdf318f26fcb4903c10a7f8b6a1a9599917",
		stats:    sanitize.Stats{Counts: [7]int{174092, 16807, 189, 176, 12, 29993, 6432}, Total: 227701},
		asnOf:    "63a0c674b317e3057127aa99dbbb61d5b9ebc2247d029aa2321caf28262ce7b8",
		rankings: "1ee0e0f2bce6eef0b0ce035fc8cbd411a23d5c4c637f62489fbebc420f58c914",
	},
	"20210401/mrt": {
		digest:   "fec3d6489a31241ef59ce37fd2270d84b19d0b0c4e9952474eadcdf72a103efa",
		stats:    sanitize.Stats{Counts: [7]int{187850, 0, 200, 191, 13, 32383, 7064}, Total: 227701},
		asnOf:    "9b66d7c5280c617a765ff79101d49ca2a60a87b5fbf5a5a2d914ddd81f8b4435",
		rankings: "2d7aeb299fbb53513d1832a15f00b63eee66bc34450422ead7cdd1302967513c",
	},
	"20230301/direct": {
		digest:   "810987e86210002493cd378ae92d894cd5d51a32ebd2892545dbb3939725535f",
		stats:    sanitize.Stats{Counts: [7]int{174092, 16807, 189, 176, 12, 29993, 6432}, Total: 227701},
		asnOf:    "6e5d535d5b3dd7a110b10b55bc980d33748c813ba6fdba8b1068743540263aad",
		rankings: "68a67f1716d0ff50a4026b905b2bd657c0e61d778d0b50c5cc25b1e9491c3b23",
	},
	"20230301/mrt": {
		digest:   "76596cfdfd60fefecbb19b30dabd4ff3c3076f4fcd8f004d07f3b31966959a77",
		stats:    sanitize.Stats{Counts: [7]int{187850, 0, 200, 191, 13, 32383, 7064}, Total: 227701},
		asnOf:    "05942d96cb1d95bfbe91f9b1d3b90a28950d26c82be587f1247c499f944282ae",
		rankings: "5e736dc01f8dd0d7d283318c777abad6f0b09a96cdf4761f71beeebfd4ca50ce",
	},
	"inferred/direct": {
		digest:   "113dffd8d5da26100af07e31dbad3277fee1dab10305ca8d463c62e285034f41",
		stats:    sanitize.Stats{Counts: [7]int{174092, 16807, 189, 176, 12, 29993, 6432}, Total: 227701},
		asnOf:    "63a0c674b317e3057127aa99dbbb61d5b9ebc2247d029aa2321caf28262ce7b8",
		rankings: "2b86acd8ba2413cdfe26a11a6ecfdf0cf7db82e2849a785484a907bf66cd9403",
	},
}

// goldenCountries are the countries of the paper's Tables 5–8.
var goldenCountries = []countries.Code{"AU", "JP", "RU", "US"}

// TestGoldenCorePass builds small fixed-seed worlds for both scenarios and
// runs the core pass over each collection twice: as built, and after an
// MRT export and ImportMRTFiles round trip. One case also infers
// relationships from the paths instead of using the generator's.
func TestGoldenCorePass(t *testing.T) {
	type tc struct {
		name   string
		opt    core.Options
		viaMRT bool
	}
	var cases []tc
	for _, sc := range []topology.Scenario{topology.Apr2021, topology.Mar2023} {
		opt := core.Options{Seed: 7, Scenario: sc, StubScale: 0.15, VPScale: 0.2}
		cases = append(cases,
			tc{string(sc) + "/direct", opt, false},
			tc{string(sc) + "/mrt", opt, true})
	}
	inf := core.Options{Seed: 7, StubScale: 0.15, VPScale: 0.2, InferRelationships: true}
	cases = append(cases, tc{"inferred/direct", inf, false})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := topology.Build(topology.Config{
				Seed: c.opt.Seed, Scenario: c.opt.Scenario,
				StubScale: c.opt.StubScale, VPScale: c.opt.VPScale,
			})
			col, err := routing.BuildCollectionWith(w, c.opt.Routing)
			if err != nil {
				t.Fatal(err)
			}
			if c.viaMRT {
				col = mrtRoundTrip(t, w, col)
			}
			p := core.NewPipelineFrom(w, col, c.opt)
			got := goldenOf(p)
			t.Logf("got %q: %#v", c.name, got)
			want, ok := goldenCoreWant[c.name]
			if !ok {
				t.Fatalf("no pinned constants for %q", c.name)
			}
			if got != want {
				t.Fatalf("core pass output moved:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

// mrtRoundTrip exports col as one TABLE_DUMP_V2 file per collector, as
// topogen does, and imports the files back.
func mrtRoundTrip(t *testing.T, w *topology.World, col *routing.Collection) *routing.Collection {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for _, c := range w.VPs.Collectors() {
		var buf bytes.Buffer
		if err := routing.ExportMRT(&buf, col, c.Name, 1617235200); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, c.Name+".mrt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	got, st, err := routing.ImportMRTFiles(w, paths, routing.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejects != 0 || got.NumRecords() != col.NumRecords() {
		t.Fatalf("MRT round trip: %d rejects, %d of %d records", st.Rejects, got.NumRecords(), col.NumRecords())
	}
	return got
}

func goldenOf(p *core.Pipeline) goldenCore {
	g := goldenCore{
		digest: snapshot.Build(p, 1, snapshot.Config{}).Digest,
		stats:  p.DS.Stats,
	}
	h := sha256.New()
	for _, a := range p.DS.ASNOf {
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(a)))
	}
	g.asnOf = hex.EncodeToString(h.Sum(nil))
	h.Reset()
	var buf []byte
	for _, cc := range goldenCountries {
		cr := p.Country(cc)
		for _, r := range []*rank.Ranking{cr.CCI, cr.CCN, cr.AHI, cr.AHN, p.CTI(cc)} {
			buf = snapshot.AppendRanking(buf[:0], r, 0)
			h.Write(buf)
		}
	}
	g.rankings = hex.EncodeToString(h.Sum(nil))
	return g
}
