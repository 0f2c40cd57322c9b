package core

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"datacron/internal/gen"
	"datacron/internal/geo"
	"datacron/internal/msg"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
	"datacron/internal/store"
)

func kgCellConfig() store.STCellConfig {
	return store.STCellConfig{
		Extent: region, Cols: 32, Rows: 32,
		Epoch: gen.DefaultStart, BucketSize: time.Hour, TimeBuckets: 24 * 30,
	}
}

// assertNodesSpatioTemporal checks that every subject of triples carrying
// both a position and a time has a cell-embedded ID in st.
func assertNodesSpatioTemporal(t *testing.T, name string, triples []rdf.Triple, st *store.Store) {
	t.Helper()
	const hasP, hasT = 1, 2
	marks := make(map[rdf.Term]int)
	for _, tr := range triples {
		switch tr.P {
		case ontology.PropAsWKT:
			marks[tr.S] |= hasP
		case ontology.PropAtTime:
			marks[tr.S] |= hasT
		}
	}
	nodes, plain := 0, 0
	for term, m := range marks {
		if m != hasP|hasT {
			continue
		}
		nodes++
		if !st.Dict().Lookup(term).IsSpatioTemporal() {
			plain++
		}
	}
	if nodes == 0 {
		t.Fatalf("%s: no spatio-temporal subjects in the graph", name)
	}
	if plain > 0 {
		t.Errorf("%s: %d of %d subjects with asWKT and atTime have plain IDs", name, plain, nodes)
	}
}

func TestKnowledgeGraphEncodesEveryNode(t *testing.T) {
	p, reports := maritimePipeline(t, false)
	if err := p.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunRealTime(context.Background()); err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	if _, err := p.ExportTriples(&archive); err != nil {
		t.Fatal(err)
	}
	triples, err := rdf.ReadNTriples(bytes.NewReader(archive.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBroker, err := p.BuildKnowledgeGraph(kgCellConfig(), store.NewVerticalPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	fromArchive, err := LoadArchive(bytes.NewReader(archive.Bytes()), kgCellConfig(), store.NewVerticalPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	// The same graphs cut into small batches: cuts land between nodes.
	recs, err := p.Broker.Drain(TopicTriples)
	if err != nil {
		t.Fatal(err)
	}
	smallRecords := store.New(kgCellConfig(), store.NewVerticalPartitioning())
	batchRecords(recs, 64, smallRecords.Load)
	smallArchive := store.New(kgCellConfig(), store.NewVerticalPartitioning())
	archiveBatches(triples, 64, smallArchive.Load)
	q := store.StarQuery{
		Patterns: []store.PO{
			{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
			{Pred: ontology.PropSpeed, Obj: nil},
		},
		Rect:      geo.Rect{MinLon: 23, MinLat: 37, MaxLon: 26, MaxLat: 39.5},
		TimeStart: gen.DefaultStart.Add(20 * time.Minute),
		TimeEnd:   gen.DefaultStart.Add(70 * time.Minute),
	}
	for name, st := range map[string]*store.Store{
		"BuildKnowledgeGraph": fromBroker, "LoadArchive": fromArchive,
		"small record batches": smallRecords, "small archive batches": smallArchive,
	} {
		assertNodesSpatioTemporal(t, name, triples, st)
		post, _, err := st.StarJoin(q, store.PostFilter)
		if err != nil {
			t.Fatal(err)
		}
		enc, _, err := st.StarJoin(q, store.EncodedPruning)
		if err != nil {
			t.Fatal(err)
		}
		if len(post) == 0 || !slices.Equal(post, enc) {
			t.Errorf("%s: encoded pruning returned %d subjects, post-filter %d", name, len(enc), len(post))
		}
	}
}

// batchSizes records the size of every batch a loader is handed.
func batchSizes(sizes *[]int) func([]rdf.Triple) {
	return func(ts []rdf.Triple) { *sizes = append(*sizes, len(ts)) }
}

func TestBatchRecordsCutsOnlyWhereTimeChanges(t *testing.T) {
	t0 := gen.DefaultStart
	rec := func(at time.Duration, value string) msg.Record {
		return msg.Record{Time: t0.Add(at), Value: []byte(value)}
	}
	line := func(s string) string { return "<http://x/" + s + "> <http://x/p> <http://x/o> ." }
	recs := []msg.Record{
		rec(0, line("a")), rec(0, line("b")), rec(0, line("c")),
		rec(time.Second, line("d")), rec(time.Second, "<http://x/broken"), rec(time.Second, line("e")),
		rec(2*time.Second, line("f")),
	}
	var sizes []int
	malformed := batchRecords(recs, 2, batchSizes(&sizes))
	if want := []int{3, 2, 1}; !slices.Equal(sizes, want) {
		t.Errorf("batches %v, want %v: cut only between times, once the limit is reached", sizes, want)
	}
	if malformed != 1 {
		t.Errorf("malformed = %d, want 1", malformed)
	}
}

func TestArchiveBatchesKeepNodesTogether(t *testing.T) {
	iri := func(s string) rdf.IRI { return rdf.IRI("http://x/" + s) }
	at := rdf.Time(gen.DefaultStart)
	triples := []rdf.Triple{
		{S: iri("n0"), P: ontology.PropAtTime, O: at},
		{S: iri("traj"), P: ontology.PropHasNode, O: iri("n0")},
		{S: iri("traj"), P: ontology.PropHasNode, O: iri("n1")},
		{S: iri("n1"), P: ontology.PropAtTime, O: at},
		{S: iri("event"), P: ontology.PropOccurs, O: iri("n1")},
		{S: iri("s"), P: iri("p"), O: iri("o")},
	}
	for _, c := range []struct {
		limit int
		want  []int
	}{{1, []int{2, 3, 1}}, {3, []int{5, 1}}, {100, []int{6}}} {
		var sizes []int
		archiveBatches(triples, c.limit, batchSizes(&sizes))
		if !slices.Equal(sizes, c.want) {
			t.Errorf("limit %d: batches %v, want %v", c.limit, sizes, c.want)
		}
	}
}

func TestMalformedTripleRecordsCounted(t *testing.T) {
	p, _ := maritimePipeline(t, false)
	ctx := context.Background()
	for _, v := range []string{
		"<http://x/s> <http://x/p> <http://x/o> .",
		"<http://x/s> <http://x/p> \"unterminated .",
		"<http://x/s> <http://x/q> \"ok\" .",
	} {
		if _, err := p.Broker.Produce(ctx, TopicTriples, "k", []byte(v), gen.DefaultStart); err != nil {
			t.Fatal(err)
		}
	}
	kg, err := p.BuildKnowledgeGraph(kgCellConfig(), store.NewVerticalPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	if kg.Len() != 2 {
		t.Errorf("graph holds %d triples, want the 2 that parse", kg.Len())
	}
	if got := p.Stats().Metrics.Counter("core.triples.malformed"); got != 1 {
		t.Errorf("after BuildKnowledgeGraph: core.triples.malformed = %d, want 1", got)
	}
	var archive bytes.Buffer
	if n, err := p.ExportTriples(&archive); err != nil || n != 2 {
		t.Errorf("ExportTriples wrote %d triples (err %v), want 2", n, err)
	}
	if got := p.Stats().Metrics.Counter("core.triples.malformed"); got != 2 {
		t.Errorf("after ExportTriples: core.triples.malformed = %d, want 2", got)
	}
}
