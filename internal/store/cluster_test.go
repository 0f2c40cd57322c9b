package store

import (
	"fmt"
	"testing"
	"time"

	"datacron/internal/geo"
	"datacron/internal/ontology"
	"datacron/internal/rdf"
)

func clusterTriples(n int) []rdf.Triple {
	var out []rdf.Triple
	for i := 0; i < n; i++ {
		node := rdf.IRI(fmt.Sprintf("http://x/cnode/%d", i))
		pos := geo.Pt(22.5+float64(i%20)*0.25, 36.5+float64((i/20)%16)*0.25)
		ts := t0.Add(time.Duration(i%48) * 30 * time.Minute)
		out = append(out,
			rdf.Triple{S: node, P: rdf.RDFType, O: ontology.ClassSemanticNode},
			rdf.Triple{S: node, P: ontology.PropAsWKT, O: rdf.WKT(pos.WKT())},
			rdf.Triple{S: node, P: ontology.PropAtTime, O: rdf.Time(ts)},
			rdf.Triple{S: node, P: ontology.PropSpeed, O: rdf.Float(float64(i % 30))},
		)
		if i%2 == 0 {
			out = append(out, rdf.Triple{S: node, P: ontology.PropEventType, O: rdf.Str("fast")})
		}
	}
	return out
}

func clusterQuery() StarQuery {
	return StarQuery{
		Patterns: []PO{
			{Pred: rdf.RDFType, Obj: ontology.ClassSemanticNode},
			{Pred: ontology.PropEventType, Obj: rdf.Str("fast")},
		},
		Rect:      geo.Rect{MinLon: 22.4, MinLat: 36.4, MaxLon: 25.6, MaxLat: 39.6},
		TimeStart: t0,
		TimeEnd:   t0.Add(8 * time.Hour),
	}
}

func TestClusterMatchesSingleStore(t *testing.T) {
	triples := clusterTriples(600)
	single := New(testCellConfig(), NewVerticalPartitioning())
	single.Load(triples)
	for _, shards := range []int{1, 3, 8} {
		cluster := NewCluster(testCellConfig(), shards, func() Layout { return NewVerticalPartitioning() })
		cluster.Load(triples)
		if cluster.Len() != single.Len() {
			t.Fatalf("%d shards: cluster holds %d triples, single %d", shards, cluster.Len(), single.Len())
		}
		for _, plan := range []Plan{PostFilter, EncodedPruning} {
			want, _, err := single.StarJoin(clusterQuery(), plan)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := cluster.StarJoin(clusterQuery(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d shards / %v: %d results, single store %d", shards, plan, len(got), len(want))
			}
			if stats.Results != len(got) {
				t.Errorf("stats results %d != %d", stats.Results, len(got))
			}
			wantSet := map[string]bool{}
			for _, term := range want {
				wantSet[term.Key()] = true
			}
			for _, term := range got {
				if !wantSet[term.Key()] {
					t.Fatalf("cluster returned %v not in single-store results", term)
				}
			}
		}
	}
}

func TestClusterShardingDistributes(t *testing.T) {
	triples := clusterTriples(400)
	cluster := NewCluster(testCellConfig(), 4, func() Layout { return NewPropertyTable() })
	cluster.Load(triples)
	if cluster.Shards() != 4 {
		t.Fatal("shard count")
	}
	// Every shard should hold a meaningful share (subject hashing spreads).
	for i, s := range cluster.shards {
		if s.Len() == 0 {
			t.Errorf("shard %d is empty", i)
		}
		if s.Len() > cluster.Len()*3/4 {
			t.Errorf("shard %d holds %d of %d triples: skewed", i, s.Len(), cluster.Len())
		}
	}
}

func TestClusterTextQuery(t *testing.T) {
	cluster := NewCluster(testCellConfig(), 3, func() Layout { return NewVerticalPartitioning() })
	cluster.Load(clusterTriples(200))
	got, _, err := cluster.Query(`SELECT ?n WHERE { ?n dtc:eventType "fast" }`, PostFilter)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Errorf("results = %d, want 100", len(got))
	}
	if _, _, err := cluster.Query("garbage", PostFilter); err == nil {
		t.Error("parse error should propagate")
	}
}

func TestClusterSubjectLocality(t *testing.T) {
	// All triples of one subject land on one shard (no cross-shard joins).
	triples := clusterTriples(300)
	cluster := NewCluster(testCellConfig(), 5, func() Layout { return NewVerticalPartitioning() })
	cluster.Load(triples)
	probe := rdf.IRI("http://x/cnode/42")
	id := cluster.dict.Lookup(probe)
	if id == 0 {
		t.Fatal("probe subject not interned")
	}
	holders := 0
	for _, s := range cluster.shards {
		if s.layout.HasSP(id, s.dict.Lookup(rdf.RDFType)) {
			holders++
		}
	}
	if holders != 1 {
		t.Errorf("subject held by %d shards, want 1", holders)
	}
}

func TestClusterEncodesNodesMentionedOnOtherShards(t *testing.T) {
	// A trajectory's reference to a node is routed to the trajectory's
	// shard, which loads in parallel with the node's own shard; the node
	// still gets its cell-embedded ID.
	var triples []rdf.Triple
	for i := 0; i < 64; i++ {
		traj := rdf.IRI(fmt.Sprintf("http://x/ctraj/%d", i))
		node := rdf.IRI(fmt.Sprintf("http://x/cnode/%d", i))
		triples = append(triples,
			rdf.Triple{S: traj, P: ontology.PropHasNode, O: node},
			rdf.Triple{S: traj, P: ontology.PropOfMover, O: rdf.IRI(fmt.Sprintf("http://x/mover/%d", i))},
			rdf.Triple{S: node, P: rdf.RDFType, O: ontology.ClassSemanticNode},
			rdf.Triple{S: node, P: ontology.PropAsWKT, O: rdf.WKT(geo.Pt(23, 37).WKT())},
			rdf.Triple{S: node, P: ontology.PropAtTime, O: rdf.Time(t0)},
		)
	}
	cluster := NewCluster(testCellConfig(), 4, func() Layout { return NewVerticalPartitioning() })
	cluster.Load(triples)
	plain := 0
	for i := 0; i < 64; i++ {
		if !cluster.dict.Lookup(rdf.IRI(fmt.Sprintf("http://x/cnode/%d", i))).IsSpatioTemporal() {
			plain++
		}
	}
	if plain > 0 {
		t.Errorf("%d of 64 nodes have plain IDs", plain)
	}
}
