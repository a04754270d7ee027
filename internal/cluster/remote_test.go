package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/verify"
)

// fakeConn is a scripted in-process RemoteConn: it grants every call,
// answers commits and snapshot opens with the scripted errors, and serves
// the commit protocol through a commitproto.Direct over itself, recording
// what each message carried.
type fakeConn struct {
	name         string
	bound        histories.Timestamp
	commitErr    error // fast-path Commit result
	readBeginErr error // ReadBegin result
	statsErr     error

	mu         sync.Mutex
	stamped    map[histories.TxID]int // StampParticipants
	prepared   map[histories.TxID]int // stamp seen when Prepare arrived
	decided    map[histories.TxID]histories.Timestamp
	aborted    []histories.TxID
	schemes    map[string]string
	transports int
}

func newFakeConn(name string) *fakeConn {
	return &fakeConn{
		name:     name,
		stamped:  make(map[histories.TxID]int),
		prepared: make(map[histories.TxID]int),
		decided:  make(map[histories.TxID]histories.Timestamp),
		schemes:  make(map[string]string),
	}
}

func (f *fakeConn) Register(name, typeName, scheme string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.schemes[name] = scheme
	return nil
}

func (f *fakeConn) SetScheme(name, scheme string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.schemes[name]; !ok {
		return fmt.Errorf("fake: no object %s", name)
	}
	f.schemes[name] = scheme
	return nil
}

func (f *fakeConn) Call(_ context.Context, _ histories.TxID, _ histories.ObjID, inv spec.Invocation) (string, error) {
	return adt.ResOk, nil
}

func (f *fakeConn) Commit(context.Context, histories.TxID) (histories.Timestamp, error) {
	if f.commitErr != nil {
		return 0, f.commitErr
	}
	return 7, nil
}

func (f *fakeConn) Abort(_ context.Context, tx histories.TxID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborted = append(f.aborted, tx)
	return nil
}

func (f *fakeConn) StampParticipants(tx histories.TxID, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stamped[tx] = n
}

func (f *fakeConn) ReadBegin(context.Context, histories.TxID) (histories.Timestamp, error) {
	return f.bound, f.readBeginErr
}

func (f *fakeConn) ReadActivate(context.Context, histories.TxID, histories.Timestamp) error {
	return nil
}

func (f *fakeConn) ReadCall(context.Context, histories.TxID, histories.ObjID, spec.Invocation) (string, error) {
	return "0", nil
}

func (f *fakeConn) ReadComplete(context.Context, histories.TxID, bool) error { return nil }

func (f *fakeConn) Stats(context.Context) (core.StatsSnapshot, error) {
	if f.statsErr != nil {
		return core.StatsSnapshot{}, f.statsErr
	}
	return core.StatsSnapshot{Committed: 3}, nil
}

func (f *fakeConn) Transport() commitproto.Transport {
	f.mu.Lock()
	f.transports++
	f.mu.Unlock()
	return commitproto.NewDirect(f.name, fakeSite{f})
}

func (f *fakeConn) Close() error { return nil }

// fakeSite is the shard's commit-protocol participant.
type fakeSite struct{ f *fakeConn }

func (s fakeSite) Prepare(tx histories.TxID) (histories.Timestamp, bool) {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	s.f.prepared[tx] = s.f.stamped[tx]
	return s.f.bound, true
}

func (s fakeSite) Commit(tx histories.TxID, ts histories.Timestamp) {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	s.f.decided[tx] = ts
}

func (s fakeSite) Abort(tx histories.TxID) {}

// newFakeCluster dials n fake shards with a recorder attached.
func newFakeCluster(t *testing.T, n int) (*Cluster, []*fakeConn, *verify.Recorder) {
	t.Helper()
	fakes := make([]*fakeConn, n)
	conns := make([]RemoteConn, n)
	for i := range fakes {
		fakes[i] = newFakeConn(fmt.Sprintf("shard%d", i))
		conns[i] = fakes[i]
	}
	rec := verify.NewRecorder()
	c, err := NewRemote(conns, RemoteOptions{Sink: rec, IDPrefix: "f-"})
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes, rec
}

// remoteAccount registers an Account on shard i of a dialed cluster.
func remoteAccount(t *testing.T, c *Cluster, i int, name string) core.Ref {
	t.Helper()
	set := ccpolicy.NewSet()
	for _, scheme := range ccpolicy.Ladder {
		set.Add(scheme, baseline.ConflictFor(scheme, "Account"), nil)
	}
	o, err := c.NewObject(i, name, adt.NewAccount(), set, "hybrid")
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// eventsOf returns the kinds of tx's recorded events, in order.
func eventsOf(rec *verify.Recorder, tx histories.TxID) []histories.Kind {
	var kinds []histories.Kind
	for _, e := range rec.History() {
		if e.Tx == tx {
			kinds = append(kinds, e.Kind)
		}
	}
	return kinds
}

func TestRemoteFastPathOutcomeUnknownRecordsNoCompletion(t *testing.T) {
	c, fakes, rec := newFakeCluster(t, 1)
	a := remoteAccount(t, c, 0, "a")
	fakes[0].commitErr = fmt.Errorf("%w: connection lost mid-commit", ErrOutcomeUnknown)

	tx := c.Begin()
	if _, err := tx.Call(a, adt.CreditInv(5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrOutcomeUnknown) {
		t.Fatalf("Commit = %v, want ErrOutcomeUnknown", err)
	}
	want := []histories.Kind{histories.Invoke, histories.Respond}
	if got := eventsOf(rec, tx.ID()); !slices.Equal(got, want) {
		t.Fatalf("events of %s = %v, want %v (no completion event)", tx.ID(), got, want)
	}
	if len(fakes[0].aborted) != 0 {
		t.Fatalf("unknown-outcome commit sent aborts %v", fakes[0].aborted)
	}
	if err := verify.CheckHybridAtomic(rec.History(), histories.SpecMap{"a": adt.NewAccount()}); err != nil {
		t.Fatalf("history with an incomplete transaction: %v", err)
	}
}

func TestRemoteFastPathFailureRecordsAborts(t *testing.T) {
	c, fakes, rec := newFakeCluster(t, 1)
	a := remoteAccount(t, c, 0, "a")
	b := remoteAccount(t, c, 0, "b")
	fakes[0].commitErr = fmt.Errorf("%w: shard refused", core.ErrTimeout)

	tx := c.Begin()
	for _, o := range []core.Ref{a, b, a} {
		if _, err := tx.Call(o, adt.CreditInv(5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("Commit = %v, want the shard's error", err)
	}
	aborts := 0
	for _, e := range rec.History() {
		if e.Tx == tx.ID() && e.Kind == histories.Abort {
			aborts++
		}
	}
	if aborts != 2 {
		t.Fatalf("recorded %d abort events, want one per touched object (2)", aborts)
	}
	specs := histories.SpecMap{"a": adt.NewAccount(), "b": adt.NewAccount()}
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Aborted != 1 || st.FastPathCommits != 0 {
		t.Fatalf("stats after failed fast path: %+v", st)
	}
}

func TestRemoteReadBeginFailureIsPartialSnapshot(t *testing.T) {
	c, fakes, _ := newFakeCluster(t, 2)
	a := remoteAccount(t, c, 0, "a")
	b := remoteAccount(t, c, 1, "b")
	fakes[1].readBeginErr = errors.New("fake: shard 1 down")
	fakes[0].bound = 40

	r := c.BeginReadOnly()
	if r.Timestamp() <= 40 {
		t.Fatalf("snapshot timestamp %d not above shard 0's bound 40", r.Timestamp())
	}
	if _, err := r.ReadCall(a, adt.CtrReadInv()); err != nil {
		t.Fatalf("read on the healthy shard: %v", err)
	}
	if _, err := r.ReadCall(b, adt.CtrReadInv()); err == nil || !strings.Contains(err.Error(), "branch unusable") {
		t.Fatalf("read on the failed shard = %v, want branch-unusable error", err)
	}
	var pe *PartialSnapshotError
	if err := r.Commit(); !errors.As(err, &pe) {
		t.Fatalf("Commit = %v, want *PartialSnapshotError", err)
	}
	if !slices.Equal(pe.Missing, []int{1}) || !errors.Is(pe, fakes[1].readBeginErr) {
		t.Fatalf("partial snapshot = %+v, want Missing [1] caused by the ReadBegin failure", pe)
	}
}

func TestRemoteTwoShardCommitStampsBeforePrepare(t *testing.T) {
	c, fakes, rec := newFakeCluster(t, 2)
	a := remoteAccount(t, c, 0, "a")
	b := remoteAccount(t, c, 1, "b")

	tx := c.Begin()
	if _, err := tx.Call(a, adt.CreditInv(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Call(b, adt.CreditInv(5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var ts histories.Timestamp
	for i, f := range fakes {
		if f.transports != 1 {
			t.Errorf("shard %d: %d transports fetched, want 1", i, f.transports)
		}
		if got := f.prepared[tx.ID()]; got != 2 {
			t.Errorf("shard %d: Prepare carried participant count %d, want 2", i, got)
		}
		d, ok := f.decided[tx.ID()]
		if !ok || (ts != 0 && d != ts) {
			t.Fatalf("shard %d: decision %d (delivered %v), want one shared timestamp", i, d, ok)
		}
		ts = d
	}
	commits := 0
	for _, e := range rec.History() {
		if e.Tx == tx.ID() && e.Kind == histories.Commit {
			if e.TS != ts {
				t.Fatalf("commit event at %d, want the decided %d", e.TS, ts)
			}
			commits++
		}
	}
	if commits != 2 {
		t.Fatalf("recorded %d commit events, want 2", commits)
	}
	specs := histories.SpecMap{"a": adt.NewAccount(), "b": adt.NewAccount()}
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.CrossShardCommits != 1 || st.Total.Committed != 6 {
		t.Fatalf("stats = %+v, want one cross-shard commit and the shards' fetched counters", st)
	}
}

func TestRemoteCatalogAndLoudFailures(t *testing.T) {
	c, fakes, _ := newFakeCluster(t, 2)
	a := remoteAccount(t, c, 1, "a")

	if err := c.SetScheme("a", "readwrite"); err != nil {
		t.Fatal(err)
	}
	if a.Scheme() != "readwrite" || fakes[1].schemes["a"] != "readwrite" {
		t.Fatalf("scheme client-side %q, shard-side %q; want readwrite on both", a.Scheme(), fakes[1].schemes["a"])
	}
	if err := c.SetScheme("nope", "hybrid"); err == nil {
		t.Fatal("SetScheme of an unregistered object succeeded")
	}
	if err := c.Checkpoint(); err == nil || !strings.Contains(err.Error(), "dialed cluster client") {
		t.Fatalf("Checkpoint = %v, want the dialed-client refusal", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "lives in the shard process") {
				t.Fatalf("CommittedState did not fail loudly: %v", r)
			}
		}()
		a.CommittedState()
	}()

	fakes[0].statsErr = errors.New("fake: stats unreachable")
	st := c.Stats()
	if st.Shards[0].StatsErr == "" || !strings.HasPrefix(st.Total.StatsErr, "shard 0:") || st.Shards[1].Committed != 3 {
		t.Fatalf("stats with shard 0 unreachable = %+v", st)
	}
}
