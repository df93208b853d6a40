package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// parseProm reads the Prometheus text exposition format into a map from
// series (name plus any label set, as written) to value. Comment lines are
// skipped and a trailing timestamp is ignored.
func parseProm(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the first space outside a label set.
		end := strings.IndexByte(line, ' ')
		if b := strings.IndexByte(line, '{'); b >= 0 && b < end {
			c := strings.IndexByte(line, '}')
			if c < 0 {
				return nil, fmt.Errorf("metrics: unclosed labels in %q", line)
			}
			end = c + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		fields := strings.Fields(line[end:])
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// histDelta returns the summed _sum and _count increase of the named
// histograms between two scrapes.
func histDelta(before, after map[string]float64, names ...string) (sum, count float64) {
	for _, n := range names {
		sum += after[n+"_sum"] - before[n+"_sum"]
		count += after[n+"_count"] - before[n+"_count"]
	}
	return sum, count
}
