package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datacron/internal/checkpoint"
	"datacron/internal/checkpoint/faultinject"
)

// TestShardedByteIdenticalOutput pins the shard plane's headline contract:
// the full maritime pipeline (synopses, FLP, link discovery, CER, weather-
// free RDF) run with 1, 2 and 4 shards over the same seeded input must
// publish byte-identical output topics and an identical summary.
func TestShardedByteIdenticalOutput(t *testing.T) {
	base, reports := shardedMaritimePipeline(t, true, 1)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 4} {
		p, reports2 := shardedMaritimePipeline(t, true, shards)
		if len(reports2) != len(reports) {
			t.Fatalf("simulation not deterministic: %d vs %d reports", len(reports2), len(reports))
		}
		if err := p.Ingest(context.Background(), reports2); err != nil {
			t.Fatal(err)
		}
		sum, err := p.RunRealTime(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
			t.Errorf("shards=%d: summaries differ:\nserial  %v\nsharded %v", shards, baseSum, sum)
		}
		requireIdenticalTopics(t, base.Broker, p.Broker)

		stats := p.Stats()
		if len(stats.Shards) != shards {
			t.Fatalf("shards=%d: Stats().Shards has %d rows", shards, len(stats.Shards))
		}
		var total int64
		for _, row := range stats.Shards {
			total += row.Records
		}
		if total != int64(len(reports)) {
			t.Errorf("shards=%d: per-shard records sum to %d, want %d", shards, total, len(reports))
		}
		// The merged view must agree with the serial run on the aggregate
		// synopses counters while also carrying the per-shard labels.
		merged := p.MergedSnapshot()
		if got, want := merged.Counter("synopses.critical"), base.Obs().Snapshot().Counter("synopses.critical"); got != want {
			t.Errorf("shards=%d: aggregate synopses.critical = %d, want %d", shards, got, want)
		}
		var labelled int64
		for i := 0; i < shards; i++ {
			labelled += merged.Counter(fmt.Sprintf("shard.%d.synopses.critical", i))
		}
		if labelled != merged.Counter("synopses.critical") {
			t.Errorf("shards=%d: per-shard labels sum to %d, aggregate %d", shards, labelled, merged.Counter("synopses.critical"))
		}
	}
}

// TestShardedRecoveryByteIdenticalOutput extends the fault-tolerance
// guarantee to the sharded loop: a 4-shard pipeline killed repeatedly
// mid-stream and recovered from barrier-coordinated checkpoints must
// reproduce, byte for byte, the output of an uninterrupted serial run.
func TestShardedRecoveryByteIdenticalOutput(t *testing.T) {
	base, reports := shardedMaritimePipeline(t, true, 1)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	faulty, reports2 := shardedMaritimePipeline(t, true, 4)
	if len(reports2) != len(reports) {
		t.Fatalf("simulation not deterministic: %d vs %d reports", len(reports2), len(reports))
	}
	if err := faulty.Ingest(context.Background(), reports2); err != nil {
		t.Fatal(err)
	}
	cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed:     42,
		KillMin:  900,
		KillMax:  1500,
		DropProb: 0.01,
	})
	rc := &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300, Injector: inj}

	sum, restarts := runUntilDone(t, faulty, rc, 100)
	if inj.Kills() < 2 {
		t.Fatalf("only %d crashes injected; the test proved nothing", inj.Kills())
	}
	t.Logf("4-shard pipeline recovered from %d crashes (%d restarts, %d checkpoints)",
		inj.Kills(), restarts, cpr.Captures())

	if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
		t.Errorf("summaries differ:\nserial  %v\nsharded %v", baseSum, sum)
	}
	requireIdenticalTopics(t, base.Broker, faulty.Broker)
}

// TestShardedCheckpointShardCountPinned: every shard count checkpoints in
// the one "shard/<i>/<op>" layout with a "shard/meta" entry, so restoring a
// checkpoint captured at one shard count into a pipeline configured with
// another — shards=1 included — fails loudly on the shard count instead of
// misrouting per-trajectory state. A checkpoint in the bare-name layout that
// shards=1 pipelines wrote before the layouts were unified is rejected
// before the broker is touched.
func TestShardedCheckpointShardCountPinned(t *testing.T) {
	for _, tc := range []struct{ capture, restore int }{
		{2, 4}, {1, 2}, {2, 1},
	} {
		t.Run(fmt.Sprintf("%dto%d", tc.capture, tc.restore), func(t *testing.T) {
			p, reports := shardedMaritimePipeline(t, false, tc.capture)
			if err := p.Ingest(context.Background(), reports); err != nil {
				t.Fatal(err)
			}
			store := checkpoint.NewMemStore()
			cpr, err := checkpoint.NewCheckpointer(store, 3)
			if err != nil {
				t.Fatal(err)
			}
			// Crash once after at least one checkpoint so the store holds state.
			inj := faultinject.New(faultinject.Config{Seed: 9, KillMin: 900, KillMax: 1200})
			_, err = p.RunWithRecovery(context.Background(), &RecoveryConfig{
				Checkpointer: cpr, EveryRecords: 300, Injector: inj,
			})
			if err == nil {
				t.Fatal("run finished before the injected crash; raise KillMin")
			}
			if cpr.Captures() == 0 {
				t.Fatal("no checkpoint captured before the crash")
			}

			q, reportsQ := shardedMaritimePipeline(t, false, tc.restore)
			if err := q.Ingest(context.Background(), reportsQ); err != nil {
				t.Fatal(err)
			}
			cprQ, err := checkpoint.NewCheckpointer(store, 3)
			if err != nil {
				t.Fatal(err)
			}
			_, err = q.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cprQ, EveryRecords: 300})
			if err == nil || !strings.Contains(err.Error(), "shard count") {
				t.Fatalf("restore with mismatched shard count: err = %v, want a shard count error", err)
			}
		})
	}

	t.Run("legacy", func(t *testing.T) {
		p, reports := shardedMaritimePipeline(t, true, 1)
		if err := p.Ingest(context.Background(), reports); err != nil {
			t.Fatal(err)
		}
		legacy := &checkpoint.Checkpoint{
			Generation: 1,
			Sources: []checkpoint.SourceOffsets{{
				Group: sourceGroup, Topic: TopicRaw, Offsets: map[int]int64{0: 100},
			}},
			Operators: map[string][]byte{},
		}
		for _, op := range []string{"synopses", "area", "linkdisc", "cer", "profiler", "flp", "summary"} {
			legacy.Operators[op] = []byte("{}")
		}
		data, err := checkpoint.Encode(legacy)
		if err != nil {
			t.Fatal(err)
		}
		store := checkpoint.NewMemStore()
		if err := store.Save(legacy.Generation, data); err != nil {
			t.Fatal(err)
		}
		cpr, err := checkpoint.NewCheckpointer(store, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.RunWithRecovery(context.Background(), &RecoveryConfig{Checkpointer: cpr, EveryRecords: 300})
		if err == nil || !strings.Contains(err.Error(), "shard/meta") {
			t.Fatalf("restore of a bare-name checkpoint: err = %v, want a missing shard/meta error", err)
		}
		if offs := p.Broker.CommittedOffsets(sourceGroup, TopicRaw); len(offs) != 0 {
			t.Errorf("rejected restore rewrote committed offsets: %v", offs)
		}
	})
}

// TestCancelledPollStagesFinalCheckpoint drives the graceful-shutdown path
// of a live run: the context is cancelled while the loop waits in Poll for
// more input, a final checkpoint is captured, and a rerun restored from it
// after the topic closes must publish byte-identical output to an
// uninterrupted run, at every shard count.
func TestCancelledPollStagesFinalCheckpoint(t *testing.T) {
	base, reports := shardedMaritimePipeline(t, false, 1)
	if err := base.Ingest(context.Background(), reports); err != nil {
		t.Fatal(err)
	}
	baseSum, err := base.RunRealTime(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, _ := shardedMaritimePipeline(t, false, shards)
			for _, r := range reports {
				if _, err := p.Broker.Produce(context.Background(), TopicRaw, r.ID, r.Marshal(), r.Time); err != nil {
					t.Fatal(err)
				}
			}
			cpr, err := checkpoint.NewCheckpointer(checkpoint.NewMemStore(), 3)
			if err != nil {
				t.Fatal(err)
			}
			rc := &RecoveryConfig{Checkpointer: cpr}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := p.RunWithRecovery(ctx, rc)
				done <- err
			}()
			// Wait until every record is committed, so the loop is (or is
			// about to be) blocked in Poll on the still-open topic.
			deadline := time.Now().Add(30 * time.Second)
			for committed(p) < int64(len(reports)) {
				if time.Now().After(deadline) {
					t.Fatal("live run did not consume its input")
				}
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v", err)
			}
			if _, err := cpr.Capture(p.Broker); err != nil {
				t.Fatalf("final capture: %v", err)
			}

			if err := p.Broker.CloseTopic(TopicRaw); err != nil {
				t.Fatal(err)
			}
			sum, err := p.RunWithRecovery(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sum) != fmt.Sprint(baseSum) {
				t.Errorf("summaries differ:\nclean    %v\nresumed  %v", baseSum, sum)
			}
			requireIdenticalTopics(t, base.Broker, p.Broker)
		})
	}
}

// committed sums the real-time consumer group's committed raw offsets.
func committed(p *Pipeline) int64 {
	var n int64
	for _, off := range p.Broker.CommittedOffsets(sourceGroup, TopicRaw) {
		n += off
	}
	return n
}
