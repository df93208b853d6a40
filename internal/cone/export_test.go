package cone

import (
	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// The per-record forms of the chain rules and the map-based kernel, kept as
// the executable specification that ResolveChains and the dense kernel are
// property-tested against.
var (
	ComputeMapRef = computeMapRef
	RecordStart   = recordStart
	TransitDepth  = transitDepth
)

// recordStart resolves one record's retained-chain start by asking rels
// about each link as it goes: the start of the first peer↔peer or
// provider→customer link (the origin when the path only climbs), moved to
// the origin when a link below it is not provider→customer, and -1 for an
// empty path.
func recordStart(path bgp.Path, rels relation.Oracle) int32 {
	if len(path) == 0 {
		return -1
	}
	start := len(path) - 1
	for i := 0; i+1 < len(path); i++ {
		r := rels.Rel(path[i], path[i+1])
		if r == topology.RelP2P {
			start = i + 1
			break
		}
		if r == topology.RelP2C {
			start = i
			break
		}
	}
	for j := start; j+1 < len(path); j++ {
		if rels.Rel(path[j], path[j+1]) != topology.RelP2C {
			return int32(len(path) - 1)
		}
	}
	return int32(start)
}

// transitDepth walks a record's path back from the origin and counts the
// provider→customer links before the first that is not.
func transitDepth(path bgp.Path, rels relation.Oracle) int32 {
	var d int32
	for j := len(path) - 2; j >= 0; j-- {
		if rels.Rel(path[j], path[j+1]) != topology.RelP2C {
			break
		}
		d++
	}
	return d
}

// computeMapRef is the original ASN-keyed map implementation, kept as the
// executable specification the dense kernel is property-tested against.
func computeMapRef(ds *sanitize.Dataset, recs []int32, rels relation.Oracle) Scores {
	// conePrefixes[a] tracks distinct prefix indexes per AS; coneASes[a]
	// tracks the distinct downstream ASes (cone membership).
	conePrefixes := map[asn.ASN]map[int32]struct{}{}
	coneASes := map[asn.ASN]map[asn.ASN]struct{}{}
	seenPrefix := map[int32]struct{}{}

	each(ds, recs, func(i int) {
		_, pfxIdx, path := ds.Record(i)
		seenPrefix[pfxIdx] = struct{}{}
		start := int(recordStart(path, rels))
		if start < 0 {
			return
		}
		for j := start; j < len(path); j++ {
			set := conePrefixes[path[j]]
			if set == nil {
				set = map[int32]struct{}{}
				conePrefixes[path[j]] = set
			}
			set[pfxIdx] = struct{}{}
			members := coneASes[path[j]]
			if members == nil {
				members = map[asn.ASN]struct{}{}
				coneASes[path[j]] = members
			}
			for k := j; k < len(path); k++ {
				members[path[k]] = struct{}{}
			}
		}
	})

	s := Scores{
		Addresses: make(map[asn.ASN]uint64, len(conePrefixes)),
		ASes:      make(map[asn.ASN]int, len(coneASes)),
	}
	for p := range seenPrefix {
		s.Total += ds.Weight[p]
	}
	for a, set := range conePrefixes {
		var sum uint64
		for p := range set {
			sum += ds.Weight[p]
		}
		s.Addresses[a] = sum
	}
	for a, members := range coneASes {
		s.ASes[a] = len(members)
	}
	return s
}
