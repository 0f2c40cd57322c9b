package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval: a public call the workload made, or a slice
// of records pushed through one layer's exported functions. Times are
// nanoseconds since the tracer's epoch; Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; end records it.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  int64
}

func (t *tracer) start(name string, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.next.Add(1), parent: parent, name: name, start: int64(time.Since(t.epoch))}
}

func (o open) end() {
	if o.t == nil {
		return
	}
	o.t.add(span{ID: o.id, Parent: o.parent, Name: o.name, Start: o.start, End: int64(time.Since(o.t.epoch))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record stores an interval measured by the caller.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.next.Add(1), Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	return errors.Join(err, f.Close())
}

// clockCost measures what one span costs the traced code: two clock reads
// and an append. Layer slices subtract it so the ledger reports the layer,
// not the tracer.
func clockCost() time.Duration {
	const n = 20_000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.start("calibrate", 0).end()
	}
	return time.Since(start) / n
}

// ledgerRow aggregates every span of one name.
type ledgerRow struct {
	name  string
	count int
	total time.Duration
	self  time.Duration // total minus the part of each span its children cover
}

// ledger computes per-name totals and self times. cost is subtracted from
// every span's self time (floored at zero) as the clock-read calibration.
func (t *tracer) ledger(cost time.Duration) []ledgerRow {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*ledgerRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &ledgerRow{name: s.Name}
			rows[s.Name] = r
		}
		dur := time.Duration(s.End - s.Start)
		self := dur - covered(s, children[s.ID]) - cost
		if self < 0 {
			self = 0
		}
		r.count++
		r.total += dur
		r.self += self
	}
	out := make([]ledgerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent. Children may overlap (concurrent fetchers), so intervals
// are merged rather than summed.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			sum += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		curE = max(curE, v[1])
	}
	sum += curE - curS
	return time.Duration(sum)
}

func printLedger(w io.Writer, rows []ledgerRow, records int) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_ns/rec")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f %12.1f\n", r.name, r.count,
			ms(r.total), ms(r.self), float64(r.self)/float64(records))
	}
}
