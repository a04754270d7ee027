package cluster

import (
	"context"
	"fmt"
	"sync"

	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// DReadTx is a cluster-wide read-only snapshot: one read-only branch per
// shard, all serializing at a single timestamp chosen when the snapshot
// starts — the Section 7 treatment, lifted to the sharded setting.
//
// The timestamp is the first coordinator timestamp above every shard
// clock ("the max of the per-shard read timestamps"): registration pins
// compaction on every shard before the timestamp is chosen, and
// activation makes every shard clock observe it, so no shard can later
// mint a commit timestamp under the snapshot.  Reads acquire no locks;
// a read may wait out (bounded by the lock wait) an update transaction
// that could still commit below the snapshot.
//
// The instant is a LOGICAL one — the timestamp order every shard shares.
// The snapshot observes exactly the transactions with earlier timestamps,
// on every shard; that is hybrid atomicity's guarantee, and what Verify
// checks.  It is not external consistency: while the snapshot is being
// activated, a commit racing on one shard may mint a timestamp below the
// snapshot while a real-time-earlier commit on another shard minted one
// above it, so real-time order across shards is not always reflected
// (within one shard it always is, because a shard clock never goes
// backwards).
type DReadTx struct {
	c        *Cluster
	id       histories.TxID
	ts       histories.Timestamp
	branches []readBranch // one per shard, indexed by shard
	missing  []int        // shards whose branch failed to open/activate
	merr     error        // first branch failure, the partial error's cause

	mu   sync.Mutex
	done bool
}

// readBranch is a DReadTx's leg on one shard: an in-process core reader
// (localRead) or a reader on a dialed shard (remoteTx).
type readBranch interface {
	// clockBound reports the largest timestamp the shard may already have
	// issued, for the snapshot-timestamp election.
	clockBound() histories.Timestamp
	// activate fixes the snapshot timestamp; an error leaves the branch
	// unusable and the snapshot partial.
	activate(ts histories.Timestamp) error
	readCall(o core.Ref, inv spec.Invocation) (string, error)
	finish(commit bool) error
}

// localRead is a read-only branch on an in-process shard.
type localRead struct{ rt *core.ReadTx }

func (r localRead) clockBound() histories.Timestamp { return r.rt.ClockBound() }

func (r localRead) activate(ts histories.Timestamp) error {
	r.rt.ActivateAt(ts)
	return nil
}

func (r localRead) readCall(o core.Ref, inv spec.Invocation) (string, error) {
	return o.(*core.Object).ReadCall(r.rt, inv)
}

func (r localRead) finish(commit bool) error {
	if commit {
		return r.rt.Commit()
	}
	return r.rt.Abort()
}

// PartialSnapshotError reports a cluster-wide snapshot that covers only
// part of the cluster: the named shards' read branches could not be
// opened (shard down, breaker open, RPC failure).  Reads on healthy
// shards inside the snapshot still returned consistent data at the
// snapshot timestamp; reads on missing shards failed with the underlying
// cause.  Callers that can tolerate partial coverage may errors.As for
// this type and use what they read; callers that cannot must treat the
// snapshot as failed.
type PartialSnapshotError struct {
	// Missing lists the unreachable shard indices, ascending.
	Missing []int
	// Cause is the first underlying branch failure.
	Cause error
}

// Error implements error.
func (e *PartialSnapshotError) Error() string {
	return fmt.Sprintf("cluster: snapshot missing shards %v: %v", e.Missing, e.Cause)
}

// Unwrap exposes the first underlying branch failure, so errors.Is sees
// through to (for example) a shard-down condition.
func (e *PartialSnapshotError) Unwrap() error { return e.Cause }

// finish marks the snapshot completed; it reports false when it already
// was.
func (t *DReadTx) finish() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	return true
}

// BeginReadOnly starts a cluster-wide read-only snapshot.
func (c *Cluster) BeginReadOnly() *DReadTx { return c.BeginReadOnlyCtx(context.Background()) }

// BeginReadOnlyCtx starts a cluster-wide read-only snapshot bound to ctx.
func (c *Cluster) BeginReadOnlyCtx(ctx context.Context) *DReadTx {
	if ctx == nil {
		ctx = context.Background()
	}
	n := c.txSeq.Add(1)
	c.stats.begun.Add(1)
	t := &DReadTx{
		c:        c,
		id:       histories.TxID(fmt.Sprintf("R%s%d", c.idPrefix, n)),
		branches: make([]readBranch, len(c.names)),
	}
	// Pin first, choose second, activate third: the provisional pins stop
	// every shard from folding commits past the snapshot while the
	// timestamp is still being chosen.
	for i := range t.branches {
		if c.remotes != nil {
			t.branches[i] = c.beginRemoteRead(ctx, i, t.id)
		} else {
			t.branches[i] = localRead{c.shards[i].BeginReadOnlyBranch(ctx, t.id)}
		}
	}
	// Each branch reports its shard's clock bound — read locally on an
	// in-process shard, fetched by the ReadBegin RPC on a dialed one — and
	// the snapshot serializes at the first coordinator timestamp above all
	// of them.
	var max histories.Timestamp
	for _, br := range t.branches {
		if now := br.clockBound(); now > max {
			max = now
		}
	}
	t.ts = c.coordClock.Next(max)
	// Branches that failed to open or activate (possible only on dialed
	// shards) leave the snapshot partial: reads through them fail fast
	// with the sticky error, and Commit reports the typed partial-result
	// error naming these shards.  A failed branch contributed bound 0 to
	// the election above, which only under-constrains the max — harmless.
	for i, br := range t.branches {
		if err := br.activate(t.ts); err != nil {
			t.missing = append(t.missing, i)
			if t.merr == nil {
				t.merr = err
			}
		}
	}
	return t
}

// Missing lists the shards (ascending) whose branch could not be opened
// or activated; the snapshot observes every other shard consistently at
// its timestamp.  Empty for a complete snapshot.
func (t *DReadTx) Missing() []int { return append([]int(nil), t.missing...) }

// ID returns the snapshot's cluster-wide identifier (with the "R" prefix
// verification uses to apply the generalized read-only rules).
func (t *DReadTx) ID() histories.TxID { return t.id }

// Timestamp returns the snapshot's (start-chosen) serialization timestamp.
func (t *DReadTx) Timestamp() histories.Timestamp { return t.ts }

// ReadCall implements core.ReadTxn: it executes inv at o through the
// read-only branch on the shard that owns o.
func (t *DReadTx) ReadCall(o core.Ref, inv spec.Invocation) (string, error) {
	shard, err := t.c.shardOf(o)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	done := t.done
	t.mu.Unlock()
	if done {
		return "", core.ErrTxDone
	}
	return t.branches[shard].readCall(o, inv)
}

// Commit finishes the snapshot on every shard, releasing the compaction
// pins and emitting its commit events.  A snapshot that could not cover
// every shard commits what it observed and returns a
// *PartialSnapshotError naming the missing shards.
func (t *DReadTx) Commit() error {
	if !t.finish() {
		return core.ErrTxDone
	}
	var first error
	for _, br := range t.branches {
		if err := br.finish(true); err != nil && first == nil {
			first = err
		}
	}
	t.c.stats.committed.Add(1)
	if len(t.missing) > 0 {
		return &PartialSnapshotError{Missing: t.Missing(), Cause: t.merr}
	}
	return first
}

// Abort abandons the snapshot on every shard.
func (t *DReadTx) Abort() error {
	if !t.finish() {
		return core.ErrTxDone
	}
	var first error
	for _, br := range t.branches {
		if err := br.finish(false); err != nil && first == nil {
			first = err
		}
	}
	t.c.stats.aborted.Add(1)
	return first
}
