package store

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"datacron/internal/geo"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
)

var (
	t0     = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	extent = geo.Rect{MinLon: 22, MinLat: 36, MaxLon: 28, MaxLat: 41}
)

func testCellConfig() STCellConfig {
	return STCellConfig{
		Extent: extent, Cols: 32, Rows: 32,
		Epoch: t0, BucketSize: time.Hour, TimeBuckets: 24 * 30,
	}
}

func TestIDEncodingRoundTrip(t *testing.T) {
	d := NewDict(testCellConfig())
	iri := rdf.IRI("http://x/node/1")
	id := d.EncodeSpatioTemporal(iri, geo.Pt(23.5, 37.5), t0.Add(3*time.Hour))
	if !id.IsSpatioTemporal() {
		t.Fatal("expected ST flag")
	}
	got, ok := d.Decode(id)
	if !ok || got != iri {
		t.Errorf("decode = %v, %v", got, ok)
	}
	// Same term re-encodes to the same ID.
	if again := d.EncodeSpatioTemporal(iri, geo.Pt(0, 0), t0); again != id {
		t.Error("re-encoding changed the ID")
	}
	if d.Lookup(iri) != id {
		t.Error("lookup mismatch")
	}
	// Plain terms have no flag.
	plain := d.Encode(rdf.Str("x"))
	if plain.IsSpatioTemporal() {
		t.Error("plain term should not have ST flag")
	}
}

func TestIDCellLocality(t *testing.T) {
	d := NewDict(testCellConfig())
	// Two nodes in the same cell and hour share the cell bits.
	a := d.EncodeSpatioTemporal(rdf.IRI("http://x/a"), geo.Pt(23.51, 37.51), t0.Add(30*time.Minute))
	b := d.EncodeSpatioTemporal(rdf.IRI("http://x/b"), geo.Pt(23.52, 37.52), t0.Add(40*time.Minute))
	if a.Cell() != b.Cell() {
		t.Errorf("same cell expected: %d vs %d", a.Cell(), b.Cell())
	}
	// A node far away or much later has a different cell.
	c := d.EncodeSpatioTemporal(rdf.IRI("http://x/c"), geo.Pt(27.0, 40.0), t0.Add(30*time.Minute))
	if a.Cell() == c.Cell() {
		t.Error("different spatial cells expected")
	}
	e := d.EncodeSpatioTemporal(rdf.IRI("http://x/e"), geo.Pt(23.51, 37.51), t0.Add(25*time.Hour))
	if a.Cell() == e.Cell() {
		t.Error("different time buckets expected")
	}
}

func TestCoveringCellsClassification(t *testing.T) {
	d := NewDict(testCellConfig())
	// Query rect exactly one grid cell wide around a known point, two hours.
	cells := d.CoveringCells(geo.Rect{MinLon: 23.0, MinLat: 37.0, MaxLon: 24.0, MaxLat: 38.0},
		t0, t0.Add(2*time.Hour))
	if len(cells) == 0 {
		t.Fatal("no covering cells")
	}
	fullCount := 0
	for _, full := range cells {
		if full {
			fullCount++
		}
	}
	if fullCount == 0 {
		t.Error("expected some fully-contained cells for an aligned query")
	}
	// Empty interval.
	if got := d.CoveringCells(extent, t0.Add(time.Hour), t0); len(got) != 0 {
		t.Error("inverted interval should cover nothing")
	}
}

// buildTestStore loads n semantic nodes spread over space and time, of
// which those with even sequence have speed "fast" (the star pattern).
func buildTestStore(layout Layout, n int) *Store {
	s := New(testCellConfig(), layout)
	var triples []rdf.Triple
	for i := 0; i < n; i++ {
		node := rdf.IRI(fmt.Sprintf("http://x/node/%d", i))
		pos := geo.Pt(22.5+float64(i%20)*0.25, 36.5+float64((i/20)%16)*0.25)
		ts := t0.Add(time.Duration(i%48) * 30 * time.Minute)
		triples = append(triples,
			rdf.Triple{S: node, P: rdf.RDFType, O: ontology.ClassSemanticNode},
			rdf.Triple{S: node, P: ontology.PropAsWKT, O: rdf.WKT(pos.WKT())},
			rdf.Triple{S: node, P: ontology.PropAtTime, O: rdf.Time(ts)},
			rdf.Triple{S: node, P: ontology.PropSpeed, O: rdf.Float(float64(i % 30))},
		)
		if i%2 == 0 {
			triples = append(triples, rdf.Triple{
				S: node, P: ontology.PropEventType, O: rdf.Str("fast"),
			})
		}
	}
	s.Load(triples)
	return s
}

func layouts() map[string]func() Layout {
	return map[string]func() Layout{
		"triples-table":         func() Layout { return NewTripleTable(8) },
		"vertical-partitioning": func() Layout { return NewVerticalPartitioning() },
		"property-table":        func() Layout { return NewPropertyTable() },
	}
}

func TestStarJoinAcrossLayoutsAndPlans(t *testing.T) {
	const n = 400
	query := StarQuery{
		Patterns: []PO{
			{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
			{Pred: ontology.PropEventType, Obj: rdf.Str("fast")},
			{Pred: ontology.PropSpeed, Obj: nil}, // var-object pattern
		},
		Rect:      geo.Rect{MinLon: 22.4, MinLat: 36.4, MaxLon: 24.6, MaxLat: 38.6},
		TimeStart: t0,
		TimeEnd:   t0.Add(6 * time.Hour),
	}
	var reference map[string]bool
	for name, mk := range layouts() {
		for _, plan := range []Plan{PostFilter, EncodedPruning} {
			t.Run(fmt.Sprintf("%s/%s", name, plan), func(t *testing.T) {
				s := buildTestStore(mk(), n)
				got, stats, err := s.StarJoin(query, plan)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 {
					t.Fatal("no results; query should match some nodes")
				}
				set := map[string]bool{}
				for _, term := range got {
					set[term.Key()] = true
				}
				if reference == nil {
					reference = set
				} else if len(set) != len(reference) {
					t.Fatalf("result size %d differs from reference %d", len(set), len(reference))
				} else {
					for k := range set {
						if !reference[k] {
							t.Fatalf("result %s not in reference", k)
						}
					}
				}
				if stats.Results != len(got) {
					t.Errorf("stats.Results=%d, len=%d", stats.Results, len(got))
				}
				if plan == EncodedPruning && stats.CellRejected == 0 {
					t.Error("encoded plan should prune something")
				}
				if plan == EncodedPruning && stats.PreciseChecks >= stats.Candidates+stats.CellRejected {
					t.Error("encoded plan should avoid precise checks")
				}
			})
		}
	}
}

func TestStarJoinWithoutSTConstraint(t *testing.T) {
	s := buildTestStore(NewVerticalPartitioning(), 100)
	got, _, err := s.StarJoin(StarQuery{
		Patterns: []PO{{Pred: ontology.PropEventType, Obj: rdf.Str("fast")}},
	}, PostFilter)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("results = %d, want 50", len(got))
	}
}

func TestStarJoinUnknownTerms(t *testing.T) {
	s := buildTestStore(NewPropertyTable(), 50)
	got, _, err := s.StarJoin(StarQuery{
		Patterns: []PO{{Pred: rdf.IRI("http://x/unknown"), Obj: rdf.Str("x")}},
	}, PostFilter)
	if err != nil || got != nil {
		t.Errorf("unknown predicate should return empty: %v, %v", got, err)
	}
	got, _, err = s.StarJoin(StarQuery{
		Patterns: []PO{{Pred: rdf.RDFType, Obj: rdf.Str("no-such-object")}},
	}, PostFilter)
	if err != nil || got != nil {
		t.Errorf("unknown object should return empty: %v, %v", got, err)
	}
}

func TestStarJoinErrors(t *testing.T) {
	s := buildTestStore(NewPropertyTable(), 10)
	if _, _, err := s.StarJoin(StarQuery{}, PostFilter); err == nil {
		t.Error("empty query should error")
	}
	if _, _, err := s.StarJoin(StarQuery{
		Patterns: []PO{{Pred: ontology.PropSpeed, Obj: nil}},
	}, PostFilter); err == nil {
		t.Error("all-variable query should error")
	}
}

func TestLayoutsAgreeOnPrimitives(t *testing.T) {
	// Property: all three layouts answer identical SubjectsPO/ObjectsSP.
	mk := layouts()
	tt := mk["triples-table"]()
	vp := mk["vertical-partitioning"]()
	pt := mk["property-table"]()
	f := func(ss, pp, oo uint8) bool {
		tr := EncodedTriple{S: ID(ss%16) + 1, P: ID(pp%4) + 1, O: ID(oo%8) + 1}
		tt.Add(tr)
		vp.Add(tr)
		pt.Add(tr)
		subjTT := tt.SubjectsPO(tr.P, tr.O)
		subjVP := vp.SubjectsPO(tr.P, tr.O)
		subjPT := pt.SubjectsPO(tr.P, tr.O)
		if !idsEqual(subjTT, subjVP) || !idsEqual(subjVP, subjPT) {
			return false
		}
		return tt.HasSP(tr.S, tr.P) && vp.HasSP(tr.S, tr.P) && pt.HasSP(tr.S, tr.P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func idsEqual(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestObjectsSPDuplicatesPreserved(t *testing.T) {
	// A subject may legitimately have several objects for one predicate.
	for name, mk := range layouts() {
		l := mk()
		l.Add(EncodedTriple{S: 1, P: 2, O: 3})
		l.Add(EncodedTriple{S: 1, P: 2, O: 4})
		if got := l.ObjectsSP(1, 2); len(got) != 2 {
			t.Errorf("%s: objects = %v", name, got)
		}
		if got := l.ObjectsSP(9, 2); len(got) != 0 {
			t.Errorf("%s: unknown subject objects = %v", name, got)
		}
	}
}

func TestIntersectSorted(t *testing.T) {
	a := []ID{1, 3, 5, 7, 9}
	b := []ID{3, 4, 5, 9, 11}
	got := intersectSorted(a, b)
	want := []ID{3, 5, 9}
	if !idsEqual(got, want) {
		t.Errorf("intersect = %v, want %v", got, want)
	}
	if got := intersectSorted(a, nil); got != nil {
		t.Error("empty intersect should be nil")
	}
}

func TestChunkIDs(t *testing.T) {
	ids := make([]ID, 10)
	for i := range ids {
		ids[i] = ID(i)
	}
	chunks := chunkIDs(ids, 3)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 10 {
		t.Errorf("chunks lose elements: %d", total)
	}
	if chunkIDs(nil, 4) != nil {
		t.Error("empty input should chunk to nil")
	}
	if got := chunkIDs(ids[:2], 8); len(got) != 2 {
		t.Errorf("over-chunking: %d chunks", len(got))
	}
}

func TestDictLenAndOverflowFallback(t *testing.T) {
	d := NewDict(testCellConfig())
	d.Encode(rdf.Str("a"))
	d.Encode(rdf.Str("a"))
	d.Encode(rdf.Str("b"))
	if d.Len() != 2 {
		t.Errorf("len = %d, want 2", d.Len())
	}
}

func TestStoreLoadIdempotentEncoding(t *testing.T) {
	// Loading two batches that mention the same node keeps one ID.
	s := New(testCellConfig(), NewVerticalPartitioning())
	node := rdf.IRI("http://x/node/0")
	batch1 := []rdf.Triple{
		{S: node, P: ontology.PropAsWKT, O: rdf.WKT(geo.Pt(23, 37).WKT())},
		{S: node, P: ontology.PropAtTime, O: rdf.Time(t0)},
	}
	batch2 := []rdf.Triple{
		{S: node, P: ontology.PropSpeed, O: rdf.Float(12)},
	}
	s.Load(batch1)
	id1 := s.dict.Lookup(node)
	s.Load(batch2)
	id2 := s.dict.Lookup(node)
	if id1 != id2 {
		t.Error("node re-encoded across batches")
	}
	if !id1.IsSpatioTemporal() {
		t.Error("node should have ST encoding from first batch")
	}
}

func TestLoadEncodesNodeMentionedFirstAsObject(t *testing.T) {
	// A trajectory's reference to a node may precede the node's own
	// triples in the batch; the node still gets its cell-embedded ID.
	s := New(testCellConfig(), NewVerticalPartitioning())
	traj, node := rdf.IRI("http://x/traj/0"), rdf.IRI("http://x/node/0")
	s.Load([]rdf.Triple{
		{S: traj, P: ontology.PropHasNode, O: node},
		{S: node, P: ontology.PropAsWKT, O: rdf.WKT(geo.Pt(23, 37).WKT())},
		{S: node, P: ontology.PropAtTime, O: rdf.Time(t0)},
	})
	if id := s.dict.Lookup(node); !id.IsSpatioTemporal() {
		t.Errorf("node referenced before its own triples got plain ID %v", id)
	}
	if id := s.dict.Lookup(traj); id.IsSpatioTemporal() {
		t.Errorf("trajectory without position got spatio-temporal ID %v", id)
	}
}
