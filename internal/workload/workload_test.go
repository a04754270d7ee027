package workload

import (
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

func newSystem(scheme, typeName, objName string, lockWait time.Duration, sink core.SeqSink) (*core.System, *core.Object) {
	sys := core.NewSystem(core.Options{LockWait: lockWait, Sink: sink})
	obj := sys.NewObject(objName, baseline.SpecFor(typeName), baseline.ConflictFor(scheme, typeName))
	return sys, obj
}

func TestEnqueueOnlyCommitsEverything(t *testing.T) {
	sys, q := newSystem("hybrid", "Queue", "Q", 100*time.Millisecond, nil)
	cfg := Config{Workers: 4, TxPerWorker: 25, MaxRetries: 10, Seed: 7}
	res := Run(sys, cfg, EnqueueOnly(q, 2))
	if res.Committed != 100 || res.Failed != 0 {
		t.Fatalf("result = %s", res)
	}
	if got := adt.QueueLen(q.CommittedState()); got != 200 {
		t.Errorf("queue length = %d, want 200", got)
	}
	if res.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
	if res.String() == "" {
		t.Error("result must render")
	}
}

func TestHybridEnqueuesNeverWait(t *testing.T) {
	sys, q := newSystem("hybrid", "Queue", "Q", 100*time.Millisecond, nil)
	cfg := Config{Workers: 8, TxPerWorker: 20, MaxRetries: 5, Hold: 100 * time.Microsecond, Seed: 3}
	res := Run(sys, cfg, EnqueueOnly(q, 1))
	if res.Waits != 0 {
		t.Errorf("hybrid enqueues waited %d times; Table II admits full concurrency", res.Waits)
	}
}

func TestCommutativityEnqueuesDoWait(t *testing.T) {
	sys, q := newSystem("commutativity", "Queue", "Q", 100*time.Millisecond, nil)
	cfg := Config{Workers: 8, TxPerWorker: 20, MaxRetries: 50, Hold: 100 * time.Microsecond, Seed: 3}
	res := Run(sys, cfg, EnqueueOnly(q, 1))
	if res.Waits == 0 {
		t.Error("commutativity enqueues must experience lock waits under contention")
	}
	if res.Committed != 160 {
		t.Errorf("committed = %d, want all 160 (waits, not failures)", res.Committed)
	}
}

func TestBlindWritesRecordedHistoryCorrect(t *testing.T) {
	rec := verify.NewRecorder()
	sys, f := newSystem("hybrid", "File", "F", 100*time.Millisecond, rec)
	cfg := Config{Workers: 6, TxPerWorker: 15, MaxRetries: 20, Seed: 11}
	res := Run(sys, cfg, BlindWrites(f, 2, 4))
	if res.Committed == 0 {
		t.Fatalf("nothing committed: %s", res)
	}
	specs := histories.SpecMap{"F": adt.NewFile()}
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Fatal(err)
	}
}

func TestAccountMixConservation(t *testing.T) {
	// With credits and successful debits only (no interest), money is
	// conserved: final balance = funded + credits - successful debits.
	rec := verify.NewRecorder()
	sys, a := newSystem("hybrid", "Account", "A", 200*time.Millisecond, rec)
	if err := Fund(sys, a, 10_000); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 4, TxPerWorker: 30, MaxRetries: 20, Seed: 5}
	res := Run(sys, cfg, AccountMix(a, 40, 0, 20))
	if res.Failed != 0 {
		t.Fatalf("failures: %s", res)
	}
	h := rec.History()
	if err := verify.CheckHybridAtomic(h, histories.SpecMap{"A": adt.NewAccount()}); err != nil {
		t.Fatal(err)
	}
	// Replay the committed operations to predict the balance.
	var want int64 = 0
	perm := histories.Permanent(h)
	serial, err := histories.Serial(perm, histories.TimestampOrder(perm))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := histories.OpSeq(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range seq {
		switch {
		case o.Op.Name == "Credit":
			want += adt.Atoi(o.Op.Arg)
		case o.Op.Name == "Debit" && o.Op.Res == adt.ResOk:
			want -= adt.Atoi(o.Op.Arg)
		}
	}
	if got := adt.AccountBalance(a.CommittedState()); got != want {
		t.Errorf("balance = %d, want %d", got, want)
	}
}

func TestAccountMixWithPostsVerifies(t *testing.T) {
	// Include interest postings; correctness is checked by replaying the
	// recorded history rather than by additive conservation.
	rec := verify.NewRecorder()
	sys, a := newSystem("hybrid", "Account", "A", 200*time.Millisecond, rec)
	if err := Fund(sys, a, 1_000); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 4, TxPerWorker: 25, MaxRetries: 40, Seed: 9}
	res := Run(sys, cfg, AccountMix(a, 30, 20, 50))
	if res.Failed != 0 {
		t.Fatalf("failures: %s", res)
	}
	if err := verify.CheckHybridAtomic(rec.History(), histories.SpecMap{"A": adt.NewAccount()}); err != nil {
		t.Fatal(err)
	}
}

func TestProducerConsumerQueueAndSemiqueue(t *testing.T) {
	for _, queue := range []bool{true, false} {
		typeName, objName := "Semiqueue", "SQ"
		if queue {
			typeName, objName = "Queue", "Q"
		}
		sys, obj := newSystem("hybrid", typeName, objName, 50*time.Millisecond, nil)
		if err := Prefill(sys, obj, 50, queue); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 4, TxPerWorker: 20, MaxRetries: 30, Seed: 13}
		res := Run(sys, cfg, ProducerConsumer(obj, 60, queue))
		if res.Committed == 0 {
			t.Errorf("%s: nothing committed: %s", typeName, res)
		}
	}
}

func TestSetChurnScales(t *testing.T) {
	sys, s := newSystem("hybrid", "Set", "S", 100*time.Millisecond, nil)
	cfg := Config{Workers: 4, TxPerWorker: 25, MaxRetries: 20, Seed: 17}
	res := Run(sys, cfg, SetChurn(s, 64))
	if res.Committed != 100 {
		t.Errorf("committed = %d, want 100: %s", res.Committed, res)
	}
}

func TestRunRetriesOnTimeout(t *testing.T) {
	// A consumer-only workload on an empty queue must exhaust retries and
	// report failures rather than hanging.
	sys, q := newSystem("hybrid", "Queue", "Q", 2*time.Millisecond, nil)
	cfg := Config{Workers: 1, TxPerWorker: 2, MaxRetries: 1, Seed: 1}
	res := Run(sys, cfg, ProducerConsumer(q, 0, true))
	if res.Failed != 2 {
		t.Errorf("failed = %d, want 2: %s", res.Failed, res)
	}
	if res.Retries == 0 || res.Timeouts == 0 {
		t.Errorf("expected retries and timeouts: %s", res)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Workers <= 0 || cfg.TxPerWorker <= 0 || cfg.MaxRetries <= 0 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
}
