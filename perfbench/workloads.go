package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
	"datacron/internal/core"
	"datacron/internal/msg"
	"datacron/internal/obs"
	"datacron/internal/rdf"
	"datacron/internal/store"
	"datacron/internal/synopses"
)

// Workload parameters.
const (
	setupRepeats = 40 // core.New calls per iteration; setup_s is their median
	liveRate     = 40_000
	liveShards   = 2
	// liveWarmup is the start of the live schedule whose emissions are not
	// counted: it holds the one-off link-discovery mask build.
	liveWarmup = 500 * time.Millisecond
	// liveLateLimit is the generator lateness (p99) beyond which a live
	// iteration no longer describes the offered rate and is discarded.
	liveLateLimit = 10 * time.Millisecond
	liveMaxBatch  = 256
	// minIterations is the fewest iterations a run reports: the per-iteration
	// percentiles and figures are reported as their median.
	minIterations = 3
)

// excluded are critical-point types not stamped with their triggering
// report's time (they carry an earlier anchor) plus the flush-time trajectory
// end, so no report's due time describes when they became possible.
var excluded = map[synopses.CriticalType]bool{
	synopses.StopStart: true, synopses.SlowMotionStart: true, synopses.GapStart: true,
	synopses.Takeoff: true, synopses.TrajectoryEnd: true,
}

// reportKey identifies a report by mover and event time.
type reportKey struct {
	id string
	t  int64
}

// iteration is one execution of a workload's job.
type iteration struct {
	setup       []float64 // seconds per core.New
	records     int
	rtWall      time.Duration // first record due → real-time layer done
	runWall     time.Duration // RunRealTime call → return
	recoverWall time.Duration // replay: the drill's first RunWithRecovery → completed run; live: runWall
	drain       time.Duration // last record due → real-time layer done
	ingest      time.Duration // Ingest (or the generator's produce calls)
	emit        []float64     // ms, due → critical point fetchable
	kgBuild     time.Duration
	kgTriples   int          // triples in the built store
	query       []float64    // ms per star join
	heap        uint64       // retained bytes
	gc          gcStats      // Go runtime over the real-time phase
	sum         core.Summary // the real-time phase's summary
	attempts    int          // replay: the drill's RunWithRecovery calls; live: 1
	polled      int64        // raw records polled over all attempts
	captures    int
	ckptSave    int64 // checkpoint bytes saved
	capture     obs.HistogramSnapshot
	restore     obs.HistogramSnapshot
	// open-loop health (live)
	late        []float64 // ms per record, send − due
	backlogMax  int64
	produceCall []time.Duration
	valid       bool
	// work counters
	attempted, failed int
	stats             core.PipelineStats
	triplesBytes      float64
	queryStats        []store.QueryStats
}

// bench is one workload bound to its scenario, with the reference outputs
// its checks compare against.
type bench struct {
	name     string
	sc       *scenario
	cfg      core.Config
	drillCfg core.Config       // replay's crash drill: the CLI config at shards=1
	due      map[reportKey]int // report → index in the log
	dueOff   []time.Duration   // live schedule, offset of each report from the first

	refMovers map[string]uint64   // live: per-mover digest of the synopses topic
	refTopics map[string][]uint64 // replay's drill: per-partition digest of every output topic
	refQuery  []uint64            // digest of each query's PostFilter result set
	checks    []string            // failed checks
}

func newBench(name string, sc *scenario) (*bench, error) {
	b := &bench{name: name, sc: sc, due: make(map[reportKey]int, len(sc.reports))}
	for i, r := range sc.reports {
		k := reportKey{r.ID, r.Time.UnixNano()}
		if _, dup := b.due[k]; !dup {
			b.due[k] = i
		}
	}
	switch name {
	case "replay":
		b.cfg = sc.withCER
		b.drillCfg = sc.base
	case "live":
		b.cfg = sc.base
		b.cfg.Shards = liveShards
		// Due times follow event time, compressed so the log arrives at
		// liveRate on average.
		first, last := sc.reports[0].Time, sc.reports[len(sc.reports)-1].Time
		span := float64(len(sc.reports)) / liveRate * float64(time.Second)
		scale := span / float64(last.Sub(first))
		b.dueOff = make([]time.Duration, len(sc.reports))
		for i, r := range sc.reports {
			b.dueOff[i] = time.Duration(float64(r.Time.Sub(first)) * scale)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return b, b.reference()
}

// reference runs the log once, crash-free and pre-ingested, before any
// timer starts, and keeps what the workload's checks compare against: for
// replay, what its crash drill must reproduce.
func (b *bench) reference() error {
	cfg := b.cfg
	if b.name == "replay" {
		cfg = b.drillCfg
	}
	p, err := core.New(core.WithConfig(cfg))
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := p.Ingest(ctx, b.sc.reports); err != nil {
		return err
	}
	if _, err := p.RunRealTime(ctx); err != nil {
		return err
	}
	switch b.name {
	case "live":
		b.refMovers, err = moverDigests(p.Broker)
	case "replay":
		b.refTopics, err = topicDigests(p.Broker)
	}
	return err
}

func (b *bench) fail(format string, args ...any) {
	b.checks = append(b.checks, fmt.Sprintf(format, args...))
}

// variant selects how an iteration is instrumented.
type variant int

const (
	plain  variant = iota // default registry, no benchmark spans
	noObs                 // core.WithObs(nil): the program's metrics off
	traced                // default registry plus a span per public call
)

// iterate runs the workload's job once: set-up, the real-time phase,
// replay's crash drill, the batch layer's build and a closed-loop star-join
// mix. Checks run after the timed sections.
func (b *bench) iterate(v variant, tr *tracer, first bool) (*iteration, error) {
	it := &iteration{records: len(b.sc.reports), valid: true}
	root := tr.start("iteration."+b.name, 0)
	defer root.end()
	heap0 := liveHeap()

	opts := []core.Option{core.WithConfig(b.cfg)}
	if v == noObs {
		opts = append(opts, core.WithObs(nil))
	}
	var p *core.Pipeline
	for i := 0; i < setupRepeats; i++ {
		sp := tr.start("core.New", root.id)
		t0 := time.Now()
		np, err := core.New(opts...)
		it.setup = append(it.setup, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("core.New: %w", err)
		}
		p = np
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tail := startTailer(ctx, p.Broker, tr, root.id)
	var dueAt func(i int) time.Time
	var err error
	gc0 := readGC()
	switch b.name {
	case "replay":
		dueAt, err = b.replay(ctx, p, it, tr, root.id)
	case "live":
		dueAt, err = b.live(ctx, p, it, tr, root.id)
	}
	it.gc = readGC().sub(gc0)
	if err != nil {
		cancel()
		tail.wait()
		return nil, err
	}
	arrivals, err := tail.wait()
	if err != nil {
		return nil, fmt.Errorf("tailing %s: %w", core.TopicSynopses, err)
	}
	it.emit = b.emitLatencies(arrivals, dueAt)
	if b.name == "replay" {
		runtime.GC()
		if err := b.drill(ctx, it, tr, root.id); err != nil {
			return nil, err
		}
	}

	// Each timed batch-layer phase starts from a collected heap, so where the
	// collector interrupts it depends on the phase's own allocation, not on
	// what the real-time phase left behind.
	runtime.GC()
	sp := tr.start("BuildKnowledgeGraph", root.id)
	t0 := time.Now()
	kg, err := p.BuildKnowledgeGraph(cellConfig(), store.NewVerticalPartitioning())
	it.kgBuild = time.Since(t0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("BuildKnowledgeGraph: %w", err)
	}
	it.kgTriples = kg.Len()
	digests := make([]uint64, len(b.sc.queries))
	it.queryStats = make([]store.QueryStats, len(b.sc.queries))
	runtime.GC()
	for i, q := range b.sc.queries {
		it.attempted++
		sp := tr.start("StarJoin", root.id)
		t0 := time.Now()
		res, qs, err := kg.StarJoin(q, store.EncodedPruning)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			it.failed++
			continue
		}
		it.query = append(it.query, ms(d))
		it.queryStats[i] = qs
		digests[i] = termDigest(res)
	}
	it.heap = liveHeap() - heap0
	runtime.KeepAlive(p)
	runtime.KeepAlive(kg)

	it.stats = p.Stats()
	if tb, err := p.Broker.TotalBytes(core.TopicTriples); err == nil && it.stats.Summary.Triples > 0 {
		it.triplesBytes = float64(tb) / float64(it.stats.Summary.Triples)
	}
	b.check(p, it, kg, digests, first)
	return it, nil
}

// replay: Ingest the whole log, then run the real-time layer over it. Every
// record is due when Ingest is called.
func (b *bench) replay(ctx context.Context, p *core.Pipeline, it *iteration, tr *tracer, parent int64) (func(int) time.Time, error) {
	t0, err := b.ingest(ctx, p, it, tr, parent)
	if err != nil {
		return nil, err
	}
	runStart := time.Now()
	sp := tr.start("Pipeline.RunRealTime", parent)
	sum, err := p.RunRealTime(ctx)
	sp.end()
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("RunRealTime: %w", err)
	}
	it.sum = sum
	it.rtWall, it.runWall, it.drain = end.Sub(t0), end.Sub(runStart), end.Sub(t0)
	return func(int) time.Time { return t0 }, nil
}

// ingest produces the whole log with Pipeline.Ingest and returns when it
// was called: the instant every record of a backlog is due.
func (b *bench) ingest(ctx context.Context, p *core.Pipeline, it *iteration, tr *tracer, parent int64) (time.Time, error) {
	t0 := time.Now()
	sp := tr.start("Pipeline.Ingest", parent)
	err := p.Ingest(ctx, b.sc.reports)
	sp.end()
	it.ingest = time.Since(t0)
	it.attempted += len(b.sc.reports)
	if err != nil {
		it.failed += len(b.sc.reports)
		return t0, fmt.Errorf("Ingest: %w", err)
	}
	it.backlogMax, err = p.Broker.Backlog(core.TopicRaw)
	return t0, err
}

// drill is replay's crash drill: the same log on a pipeline of its own with
// the CLI config, under checkpointing with seeded crashes, restarted until
// the run completes. Its outputs are checked against a crash-free run after
// the clock stops.
func (b *bench) drill(ctx context.Context, it *iteration, tr *tracer, parent int64) error {
	dsp := tr.start("drill", parent)
	defer dsp.end()
	p, err := core.New(core.WithConfig(b.drillCfg))
	if err != nil {
		return fmt.Errorf("core.New: %w", err)
	}
	sp := tr.start("Pipeline.Ingest", dsp.id)
	err = p.Ingest(ctx, b.sc.reports)
	sp.end()
	it.attempted += len(b.sc.reports)
	if err != nil {
		it.failed += len(b.sc.reports)
		return fmt.Errorf("Ingest: %w", err)
	}
	st := &countingStore{MemStore: checkpoint.NewMemStore()}
	cpr, err := checkpoint.NewCheckpointer(st, 3)
	if err != nil {
		return err
	}
	// Five crashes per drill, for every seed: a checkpoint every n/11
	// records and a crash 2.4 to 2.6 checkpoint intervals after each
	// restart, so every attempt but the last completes two checkpoints,
	// replays about half an interval, and advances the resume point by 2n/11.
	n := int64(len(b.sc.reports))
	rc := &core.RecoveryConfig{
		Checkpointer: cpr,
		EveryRecords: int(n / 11),
		Injector:     faultinject.New(faultinject.Config{Seed: b.sc.seed, KillMin: 12 * n / 55, KillMax: 13 * n / 55}),
	}
	runStart := time.Now()
	var sum core.Summary
	for {
		it.attempts++
		sp := tr.start("Pipeline.RunWithRecovery", dsp.id)
		sum, err = p.RunWithRecovery(ctx, rc)
		sp.end()
		// The registry restarts with every attempt, so each attempt's
		// checkpoint histograms are collected before the next one begins.
		snap := p.MergedSnapshot()
		it.capture = mergeHist(it.capture, snap, "checkpoint.capture.seconds")
		it.restore = mergeHist(it.restore, snap, "checkpoint.restore.seconds")
		it.polled += p.Stats().Consumer.Polled
		if !errors.Is(err, faultinject.ErrInjectedCrash) || it.attempts > 1000 {
			break
		}
	}
	it.recoverWall = time.Since(runStart)
	if err != nil {
		return fmt.Errorf("RunWithRecovery: %w", err)
	}
	it.captures = cpr.Captures()
	it.ckptSave = st.bytes
	if kills := rc.Injector.Kills(); kills == 0 {
		b.fail("replay: the drill injected no crash")
	}
	b.checkSummary(p, sum)
	got, err := topicDigests(p.Broker)
	if err != nil {
		b.fail("replay: reading the drill's output topics: %v", err)
	}
	for topic, want := range b.refTopics {
		for part := range want {
			if part >= len(got[topic]) || got[topic][part] != want[part] {
				b.fail("replay: drill %s partition %d differs from the crash-free run", topic, part)
			}
		}
	}
	return nil
}

// live: an open loop producing each report at its due time while the
// real-time layer consumes concurrently.
func (b *bench) live(ctx context.Context, p *core.Pipeline, it *iteration, tr *tracer, parent int64) (func(int) time.Time, error) {
	reports := b.sc.reports
	type runResult struct {
		sum core.Summary
		err error
		end time.Time
	}
	done := make(chan runResult, 1)
	start := time.Now()
	go func() {
		sp := tr.start("Pipeline.RunRealTime", parent)
		sum, err := p.RunRealTime(ctx)
		sp.end()
		done <- runResult{sum, err, time.Now()}
	}()

	gen := tr.start("generator", parent)
	recs := make([]msg.Record, 0, liveMaxBatch)
	it.late = make([]float64, 0, len(reports))
	var genErr error
	for i := 0; i < len(reports); {
		now := time.Since(start)
		if d := b.dueOff[i] - now; d > 0 {
			time.Sleep(d)
			continue
		}
		j := i
		for j < len(reports) && j-i < liveMaxBatch && b.dueOff[j] <= now {
			j++
		}
		size := 0
		for k := i; k < j; k++ {
			size += reports[k].BinarySize()
		}
		arena := make([]byte, 0, size)
		recs = recs[:0]
		for k := i; k < j; k++ {
			s := len(arena)
			arena = reports[k].AppendBinary(arena)
			recs = append(recs, msg.Record{Key: reports[k].ID, Value: arena[s:len(arena):len(arena)], Time: reports[k].Time})
			it.late = append(it.late, ms(now-b.dueOff[k]))
		}
		if bl, err := p.Broker.Backlog(core.TopicRaw); err == nil && bl > it.backlogMax {
			it.backlogMax = bl
		}
		sp := tr.start("Broker.ProduceBatch", gen.id)
		t0 := time.Now()
		admitted, err := p.Broker.ProduceBatch(ctx, core.TopicRaw, recs)
		d := time.Since(t0)
		sp.end()
		it.produceCall = append(it.produceCall, d)
		it.ingest += d
		it.attempted += j - i
		it.failed += j - i - admitted
		if err != nil {
			genErr = err
			break
		}
		i = j
	}
	if err := p.Broker.CloseTopic(core.TopicRaw); err != nil && genErr == nil {
		genErr = err
	}
	gen.end()
	lastDue := start.Add(b.dueOff[len(b.dueOff)-1])
	res := <-done
	if genErr != nil {
		return nil, fmt.Errorf("producing: %w", genErr)
	}
	if res.err != nil {
		return nil, fmt.Errorf("RunRealTime: %w", res.err)
	}
	it.attempts = 1
	it.sum = res.sum
	it.polled = p.Stats().Consumer.Polled
	it.rtWall, it.runWall, it.drain = res.end.Sub(start), res.end.Sub(start), res.end.Sub(lastDue)
	it.recoverWall = it.runWall
	if late := quantile(append([]float64(nil), it.late...), 0.99); late > ms(liveLateLimit) {
		it.valid = false
	}
	return func(i int) time.Time {
		if b.dueOff[i] < liveWarmup {
			return time.Time{} // warm-up: not counted
		}
		return start.Add(b.dueOff[i])
	}, nil
}

// emitLatencies matches each fetched critical point to its triggering
// report and returns due → fetchable in milliseconds.
func (b *bench) emitLatencies(arrivals []arrival, dueAt func(int) time.Time) []float64 {
	out := make([]float64, 0, len(arrivals))
	for _, a := range arrivals {
		cp, err := synopses.UnmarshalCriticalPoint(a.value)
		if err != nil {
			b.fail("%s: undecodable critical point: %v", b.name, err)
			continue
		}
		if excluded[cp.Type] {
			continue
		}
		i, ok := b.due[reportKey{cp.ID, cp.Time.UnixNano()}]
		if !ok {
			b.fail("%s: critical point %s %s at %s matches no report", b.name, cp.Type, cp.ID, cp.Time)
			continue
		}
		due := dueAt(i)
		if due.IsZero() {
			continue
		}
		out = append(out, ms(a.at.Sub(due)))
	}
	return out
}

// checkSummary compares a completed run's Summary with the log and the
// output topics.
func (b *bench) checkSummary(p *core.Pipeline, sum core.Summary) {
	if sum.RawIn != int64(len(b.sc.reports)) {
		b.fail("%s: RawIn %d, log holds %d", b.name, sum.RawIn, len(b.sc.reports))
	}
	for _, c := range []struct {
		topic string
		want  int64
	}{
		{core.TopicSynopses, sum.CriticalPoints},
		{core.TopicTriples, sum.Triples},
		{core.TopicLinks, sum.Links},
	} {
		got, err := p.Broker.TotalRecords(c.topic)
		if err != nil || got != c.want {
			b.fail("%s: %s holds %d records, Summary says %d (%v)", b.name, c.topic, got, c.want, err)
		}
	}
}

// check runs the output checks, after every timed section of the
// iteration.
func (b *bench) check(p *core.Pipeline, it *iteration, kg *store.Store, digests []uint64, first bool) {
	b.checkSummary(p, it.sum)
	if b.name == "live" {
		got, err := moverDigests(p.Broker)
		if err != nil {
			b.fail("live: reading %s: %v", core.TopicSynopses, err)
		}
		for id, want := range b.refMovers {
			if got[id] != want {
				b.fail("live: mover %s critical points differ from the pre-ingested run", id)
				break
			}
		}
		if len(got) != len(b.refMovers) {
			b.fail("live: %d movers on %s, pre-ingested run has %d", len(got), core.TopicSynopses, len(b.refMovers))
		}
	}
	// EncodedPruning must agree with PostFilter. Replay's graph is the same
	// every iteration, so the PostFilter answers are computed once; live's
	// node numbering follows arrival interleaving, so it is checked on its
	// first graph only.
	if first {
		b.refQuery = make([]uint64, len(b.sc.queries))
		for i, q := range b.sc.queries {
			res, _, err := kg.StarJoin(q, store.PostFilter)
			if err != nil {
				b.fail("%s: PostFilter query %d: %v", b.name, i, err)
				continue
			}
			b.refQuery[i] = termDigest(res)
		}
	} else if b.name == "live" {
		return
	}
	for i := range digests {
		if digests[i] != b.refQuery[i] {
			b.fail("%s: query %d: EncodedPruning result differs from PostFilter", b.name, i)
		}
	}
}

// countingStore is the crash drill's checkpoint store: an in-memory store
// that counts what is saved into it.
type countingStore struct {
	*checkpoint.MemStore
	bytes int64
}

func (s *countingStore) Save(gen uint64, data []byte) error {
	s.bytes += int64(len(data))
	return s.MemStore.Save(gen, data)
}

func mergeHist(acc obs.HistogramSnapshot, snap obs.Snapshot, name string) obs.HistogramSnapshot {
	h, ok := snap.Histogram(name)
	if !ok {
		return acc
	}
	if acc.Count == 0 && acc.Bounds == nil {
		return h
	}
	if m, err := acc.Merge(h); err == nil {
		return m
	}
	return acc
}

// arrival is one record read from the synopses topic and when it arrived.
type arrival struct {
	value []byte
	at    time.Time
}

// tailer reads trajectory.synopses the way a downstream consumer would: one
// goroutine per partition, each looping on a blocking Fetch.
type tailer struct {
	wg    sync.WaitGroup
	span  open // parent of the readers' Fetch spans
	parts [][]arrival
	errs  []error
}

func startTailer(ctx context.Context, b *msg.Broker, tr *tracer, parent int64) *tailer {
	n, err := b.Partitions(core.TopicSynopses)
	t := &tailer{span: tr.start("tailer", parent)}
	if err != nil {
		t.errs = []error{err}
		return t
	}
	t.parts = make([][]arrival, n)
	t.errs = make([]error, n)
	for part := 0; part < n; part++ {
		t.wg.Add(1)
		go func(part int) {
			defer t.wg.Done()
			var off int64
			for {
				sp := tr.start("Broker.Fetch", t.span.id)
				recs, err := b.Fetch(ctx, core.TopicSynopses, part, off, 4096)
				sp.end()
				at := time.Now()
				if err != nil {
					if !errors.Is(err, msg.ErrClosed) {
						t.errs[part] = err
					}
					return
				}
				for _, r := range recs {
					t.parts[part] = append(t.parts[part], arrival{r.Value, at})
				}
				off = recs[len(recs)-1].Offset + 1
			}
		}(part)
	}
	return t
}

// wait blocks until every partition reader has stopped.
func (t *tailer) wait() ([]arrival, error) {
	t.wg.Wait()
	t.span.end()
	var out []arrival
	for _, p := range t.parts {
		out = append(out, p...)
	}
	return out, errors.Join(t.errs...)
}

// termDigest is an order-independent digest of a query's result set.
func termDigest(terms []rdf.Term) uint64 {
	keys := make([]string, len(terms))
	for i, t := range terms {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// partitionRecords reads a closed topic partition from the start.
func partitionRecords(b *msg.Broker, topic string, part int) ([]msg.Record, error) {
	end, err := b.EndOffset(topic, part)
	if err != nil || end == 0 {
		return nil, err
	}
	recs, err := b.Fetch(context.Background(), topic, part, 0, int(end))
	if errors.Is(err, msg.ErrClosed) {
		err = nil
	}
	return recs, err
}

// topicDigests digests every output topic partition: key, value and event
// time of each record, in offset order.
func topicDigests(b *msg.Broker) (map[string][]uint64, error) {
	out := map[string][]uint64{}
	for _, topic := range []string{core.TopicSynopses, core.TopicTriples, core.TopicLinks, core.TopicEvents} {
		n, err := b.Partitions(topic)
		if err != nil {
			return nil, err
		}
		for part := 0; part < n; part++ {
			recs, err := partitionRecords(b, topic, part)
			if err != nil {
				return nil, err
			}
			h := fnv.New64a()
			var ts [8]byte
			for _, r := range recs {
				h.Write([]byte(r.Key))
				h.Write([]byte{0})
				h.Write(r.Value)
				h.Write([]byte{0})
				u := uint64(r.Time.UnixNano())
				for i := range ts {
					ts[i] = byte(u >> (8 * i))
				}
				h.Write(ts[:])
			}
			out[topic] = append(out[topic], h.Sum64())
		}
	}
	return out, nil
}

// moverDigests digests each mover's critical-point sequence on the
// synopses topic, in offset order.
func moverDigests(b *msg.Broker) (map[string]uint64, error) {
	n, err := b.Partitions(core.TopicSynopses)
	if err != nil {
		return nil, err
	}
	hs := map[string]hash.Hash64{}
	for part := 0; part < n; part++ {
		recs, err := partitionRecords(b, core.TopicSynopses, part)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			h, ok := hs[r.Key]
			if !ok {
				h = fnv.New64a()
				hs[r.Key] = h
			}
			h.Write(r.Value)
			h.Write([]byte{0})
		}
	}
	out := make(map[string]uint64, len(hs))
	for id, h := range hs {
		out[id] = h.Sum64()
	}
	return out, nil
}
