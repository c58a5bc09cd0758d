package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition (crhd's GET /metrics):
// every sample value keyed by its series exactly as printed, the metric
// name followed by its label set, e.g.
// `crhd_stage_seconds_sum{stage="solve"}`.
type scrape map[string]float64

// parseMetrics parses the Prometheus text format: comment and blank
// lines are skipped, every other line is `series value [timestamp]`.
// Quoted label values may contain spaces, braces and escaped quotes.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		series, rest, err := splitSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value and an optional timestamp after %q", line, series)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", line, err)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return out, nil
}

// splitSeries cuts a sample line after its series: the metric name and,
// when present, its brace-delimited label set.
func splitSeries(text string) (series, rest string, err error) {
	open := strings.IndexAny(text, "{ \t")
	if open < 0 {
		return "", "", fmt.Errorf("no value in %q", text)
	}
	if text[open] != '{' {
		return text[:open], text[open:], nil
	}
	quoted := false
	for i := open + 1; i < len(text); i++ {
		switch c := text[i]; {
		case quoted && c == '\\':
			i++ // the escaped byte cannot close the quote
		case c == '"':
			quoted = !quoted
		case !quoted && c == '}':
			return text[:i+1], text[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label set in %q", text)
}

// delta returns the change of one series between two scrapes; a series
// absent from a scrape counts as 0 there (counters and histograms start
// at 0, and crhd omits a gauge it has no value for).
func delta(before, after scrape, series string) float64 {
	return after[series] - before[series]
}
