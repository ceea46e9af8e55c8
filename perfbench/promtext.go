package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one scrape of ftserve's /metrics: every sample line keyed
// by its series exactly as printed, e.g. `ftspanner_apply_ns_sum` or
// `ftspanner_http_request_ns_count{path="/query"}`.
type promSample map[string]float64

// parseProm parses the Prometheus text exposition format as internal/obs
// writes it: comment lines, then one "series value" line per sample.
func parseProm(text string) (promSample, error) {
	s := promSample{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		s[strings.TrimSpace(line[:i])] = v
	}
	return s, nil
}

// delta returns after − before for one series (absent counts as 0).
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

// histMean returns the mean of one histogram series' observations between
// two scrapes, in the given unit of nanoseconds, or 0 if none happened.
// name is the base series with its labels, e.g.
// `ftspanner_oracle_query_ns{result="hit"}`.
func histMean(before, after promSample, name string, unitNs float64) (mean, count float64) {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i:]
	}
	count = delta(before, after, base+"_count"+labels)
	if count <= 0 {
		return 0, 0
	}
	return delta(before, after, base+"_sum"+labels) / count / unitNs, count
}
