package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// DTx is a distributed transaction: one branch per touched shard, opened
// lazily as operations route to objects, all carrying the same transaction
// identifier so a shared recorder sees one global transaction.  Like a
// plain transaction it is single-threaded.  Commit takes the single-shard
// fast path when only one branch opened, and otherwise runs two-phase
// commit so every shard serializes the transaction at the same timestamp.
type DTx struct {
	c   *Cluster
	id  histories.TxID
	ctx context.Context

	mu       sync.Mutex
	done     bool
	branches []txBranch // indexed by shard, nil until first use
	order    []int      // touched shards, in first-use order
}

// txBranch is a DTx's leg on one shard: an in-process core transaction
// (localBranch) or a transaction on a dialed shard (remoteTx).  The
// DTx completes each branch exactly once.
type txBranch interface {
	// call executes one operation at o, an object of the branch's shard.
	call(o core.Ref, inv spec.Invocation) (string, error)
	// commit is the single-shard fast path; a failed commit leaves the
	// branch completed (rolled back, or of unknown fate).
	commit() error
	abort()
	// commitAt applies the commit protocol's decision; ErrTxDone means
	// the decision already landed.
	commitAt(ts histories.Timestamp) error
	// transport stamps the participant count n into the branch and
	// returns its commit-protocol transport.
	transport(n int) commitproto.Transport
}

// localBranch is a branch on an in-process shard.
type localBranch struct {
	tx   *core.Tx
	name string
}

func (b localBranch) call(o core.Ref, inv spec.Invocation) (string, error) {
	return o.(*core.Object).Call(b.tx, inv)
}

func (b localBranch) commit() error {
	if err := b.tx.Commit(); err != nil {
		// The branch did not commit (e.g. ErrTxBusy: a stray goroutine
		// still mid-call).  Abort it here — the DTx is already completed,
		// so the caller's Abort would be a no-op and the branch's locks
		// would leak forever.
		_ = b.tx.Abort()
		return err
	}
	return nil
}

func (b localBranch) abort()                                { _ = b.tx.Abort() }
func (b localBranch) commitAt(ts histories.Timestamp) error { return b.tx.CommitAt(ts) }

// transport calls the branch's participant directly (commitproto.Direct):
// no per-commit goroutines, channels, or timers.
func (b localBranch) transport(n int) commitproto.Transport {
	b.tx.SetParticipants(n)
	return commitproto.NewDirect(b.name, core.TxParticipant{Tx: b.tx})
}

// Begin starts a distributed transaction.
func (c *Cluster) Begin() *DTx { return c.BeginCtx(context.Background()) }

// BeginCtx starts a distributed transaction bound to ctx: cancellation
// unblocks lock waits on every branch and — until the commit decision is
// reached — cancels an in-flight commit protocol round.
func (c *Cluster) BeginCtx(ctx context.Context) *DTx {
	if ctx == nil {
		ctx = context.Background()
	}
	n := c.txSeq.Add(1)
	c.stats.begun.Add(1)
	return &DTx{
		c:        c,
		id:       histories.TxID(fmt.Sprintf("T%s%d", c.idPrefix, n)),
		ctx:      ctx,
		branches: make([]txBranch, len(c.names)),
	}
}

// ID returns the transaction's cluster-wide identifier, shared by all of
// its shard branches.
func (t *DTx) ID() histories.TxID { return t.id }

// Context returns the context the transaction was started with.
func (t *DTx) Context() context.Context { return t.ctx }

// Call implements core.Txn: it executes inv at o through the branch on
// the shard that owns o, beginning the branch on first use.
func (t *DTx) Call(o core.Ref, inv spec.Invocation) (string, error) {
	shard, err := t.c.shardOf(o)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return "", core.ErrTxDone
	}
	br := t.branches[shard]
	if br == nil {
		if t.c.remotes != nil {
			br = &remoteTx{c: t.c, conn: t.c.remotes[shard], id: t.id, ctx: t.ctx}
		} else {
			br = localBranch{tx: t.c.shards[shard].BeginBranch(t.ctx, t.id), name: t.c.names[shard]}
		}
		t.branches[shard] = br
		t.order = append(t.order, shard)
	}
	t.mu.Unlock()
	return br.call(o, inv)
}

// Shards reports how many shards the transaction has touched so far.
func (t *DTx) Shards() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// finish marks the transaction completed and returns the touched shards;
// the second return is false when it was already completed.
func (t *DTx) finish() ([]int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, false
	}
	t.done = true
	return t.order, true
}

// Commit atomically commits the transaction on every touched shard.  A
// transaction that touched one shard commits locally — drawing its
// timestamp from that shard's clock, with no protocol round.  A
// cross-shard transaction runs two-phase commit: every branch votes with
// its timestamp lower bound, and the coordinator distributes one commit
// timestamp above all of them, so all shards serialize the transaction at
// the same position.  On ErrCommitAborted every branch has been rolled
// back; the caller may retry the whole transaction.
func (t *DTx) Commit() error {
	order, ok := t.finish()
	if !ok {
		return core.ErrTxDone
	}
	switch len(order) {
	case 0:
		// Read nothing, wrote nothing: committing is a no-op.
		t.c.stats.committed.Add(1)
		return nil
	case 1:
		if err := t.branches[order[0]].commit(); err != nil {
			t.c.stats.aborted.Add(1)
			return err
		}
		t.c.stats.committed.Add(1)
		t.c.stats.fastPathCommits.Add(1)
		return nil
	}

	// No transport is torn down per commit, so every one stays deliverable
	// through the decision re-apply loop below, as the Transport lifecycle
	// contract requires.  Every leg's commit record is stamped with the
	// full site count, so a recovery merging this transaction across shard
	// logs can tell a complete merge from one missing a leg
	// (cluster.FinishRecovery).
	trs := make([]commitproto.Transport, len(order))
	for i, shard := range order {
		trs[i] = t.branches[shard].transport(len(order))
		if t.c.wrapTransport != nil {
			trs[i] = t.c.wrapTransport(shard, trs[i])
		}
	}
	dec, ts, err := t.c.coord.RunTransports(t.ctx, t.id, trs)

	// The protocol's message delivery is timeout-bounded; a branch that
	// missed the decision would stay prepared, holding locks the caller
	// can no longer release (the DTx is finished).  Re-apply the decision
	// locally: standard 2PC recovery — a participant that voted must
	// apply the decision when it learns it — and idempotent, since a
	// branch the message did reach is already completed (ErrTxDone).
	if dec == commitproto.Committed {
		for _, shard := range order {
			if err := t.branches[shard].commitAt(ts); err != nil && !errors.Is(err, core.ErrTxDone) {
				// Unreachable through DTx's state machine: finish() ran
				// before the protocol, so no new call can enter, and a
				// call still in flight makes Prepare veto the round.  A
				// failure here would tear the transaction across shards.
				panic(fmt.Sprintf("cluster: branch of %s on %s cannot apply decision %d: %v",
					t.id, t.c.names[shard], ts, err))
			}
		}
		t.c.stats.committed.Add(1)
		t.c.stats.crossShardCommit.Add(1)
		return nil
	}
	for _, shard := range order {
		t.branches[shard].abort()
	}
	t.c.stats.aborted.Add(1)
	t.c.stats.protocolAborts.Add(1)
	if err != nil {
		// Every protocol abort rolled all branches back, so all are
		// safely retryable: wrap ErrCommitAborted alongside the cause so
		// Atomically retries a transient unreachable-participant timeout
		// too — and a wrapped ctx error still stops the retry loop.
		return fmt.Errorf("cluster: commit of %s: %w (%w)", t.id, ErrCommitAborted, err)
	}
	return fmt.Errorf("%w: %s", ErrCommitAborted, t.id)
}

// Abort aborts the transaction on every touched shard, releasing its locks
// and discarding its intentions.  Aborting a completed transaction is a
// no-op error (ErrTxDone).
func (t *DTx) Abort() error {
	order, ok := t.finish()
	if !ok {
		return core.ErrTxDone
	}
	for _, shard := range order {
		t.branches[shard].abort()
	}
	t.c.stats.aborted.Add(1)
	return nil
}
