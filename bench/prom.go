package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// counters is one scrape of a Prometheus text exposition, summed per
// metric name over its label sets: the benchmark reads totals (requests
// over all routes, jobs over all tenants), never one series.
type counters map[string]float64

// parseProm reads the text exposition format. Comment lines are skipped,
// histogram series keep their _bucket/_sum/_count suffixes as names, and
// a line that is not "name[{labels}] value" is an error: a scrape the
// benchmark cannot read must not pass for a zero.
func parseProm(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: unbalanced labels in %q", line)
			}
			name, rest = line[:i], strings.TrimSpace(line[j+1:])
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, rest = line[:i], strings.TrimSpace(line[i+1:])
		}
		// An optional timestamp may follow the value.
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			rest = rest[:i]
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad sample %q", line)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta is after minus before, per name; names absent before count from
// zero (a family registered by the first use of a code path).
func (after counters) delta(before counters) counters {
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// scrapeSelf reads this process's own registry through the same text
// the server exposes on GET /metrics, so in-process and subprocess layers
// are counted by one parser.
func scrapeSelf() counters {
	var b bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&b); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	c, err := parseProm(&b)
	if err != nil {
		panic(fmt.Sprintf("own registry does not parse: %v", err))
	}
	return c
}

// scrapeURL reads GET base/metrics of a subprocess.
func scrapeURL(base string) (counters, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
