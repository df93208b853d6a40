package cone_test

import (
	"reflect"
	"testing"

	"countryrank/internal/cone"
	"countryrank/internal/core"
)

// TestDenseMatchesMapReference: over several generated worlds and views,
// on both ground-truth and inferred relationships, the dense pair-sort
// kernel must produce byte-identical Scores to the retained map-based
// reference.
func TestDenseMatchesMapReference(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		opt := core.Options{Seed: seed, StubScale: 0.15, VPScale: 0.2}
		if seed == 5 {
			opt.InferRelationships = true // exercise broken-chain handling
		}
		p := core.NewPipeline(opt)
		views := map[string][]int32{
			"global":      nil,
			"intl-AU":     p.ViewRecords(core.International, "AU"),
			"intl-US":     p.ViewRecords(core.International, "US"),
			"natl-JP":     p.ViewRecords(core.National, "JP"),
			"outbound-RU": p.ViewRecords(core.Outbound, "RU"),
			"empty":       p.ViewRecords(core.National, "ZZ"),
		}
		for name, recs := range views {
			got := cone.Compute(p.DS, recs, p.Rels)
			want := cone.ComputeMapRef(p.DS, recs, p.Rels)
			if got.Total != want.Total {
				t.Fatalf("seed %d %s: Total %d != %d", seed, name, got.Total, want.Total)
			}
			if !reflect.DeepEqual(got.Addresses, want.Addresses) {
				t.Fatalf("seed %d %s: Addresses diverge (%d vs %d ASes)",
					seed, name, len(got.Addresses), len(want.Addresses))
			}
			if !reflect.DeepEqual(got.ASes, want.ASes) {
				t.Fatalf("seed %d %s: ASes diverge (%d vs %d)",
					seed, name, len(got.ASes), len(want.ASes))
			}
			starts := cone.ResolveChains(p.DS, nil, p.Rels).Starts
			addr := cone.ComputeAddresses(p.DS, recs, starts)
			if addr.Total != want.Total || !reflect.DeepEqual(addr.Addresses, want.Addresses) {
				t.Fatalf("seed %d %s: ComputeAddresses diverges from reference", seed, name)
			}
			if addr.ASes != nil {
				t.Fatalf("seed %d %s: ComputeAddresses must leave ASes nil", seed, name)
			}
		}
	}
}

// TestResolveChainsMatchesPerRecord: the fused per-path chain pass must give
// every accepted record the start the per-record rules give it and the
// transit depth the backward walk from the origin counts, on the
// ground-truth graph and on an inferred relationship table, whether it
// resolves every path or only a view's.
func TestResolveChainsMatchesPerRecord(t *testing.T) {
	for _, infer := range []bool{false, true} {
		p := core.NewPipeline(core.Options{Seed: 5, StubScale: 0.15, VPScale: 0.2, InferRelationships: infer})
		intl := p.ViewRecords(core.International, "AU")
		for name, recs := range map[string][]int32{"all": nil, "intl-AU": intl} {
			c := cone.ResolveChains(p.DS, recs, p.Rels)
			check := func(i int) {
				_, _, path := p.DS.Record(i)
				k := p.DS.PathKey[i]
				if got, want := c.Starts[k], cone.RecordStart(path, p.Rels); got != want {
					t.Fatalf("infer=%v %s record %d (%v): start %d, per-record rule %d", infer, name, i, path, got, want)
				}
				if got, want := c.Depths[k], cone.TransitDepth(path, p.Rels); got != want {
					t.Fatalf("infer=%v %s record %d (%v): depth %d, backward walk %d", infer, name, i, path, got, want)
				}
			}
			if recs == nil {
				for i := 0; i < p.DS.Len(); i++ {
					check(i)
				}
			}
			for _, i := range recs {
				check(int(i))
			}
		}
	}
}
