package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
)

// This file is the client half of the networked cluster: a Cluster whose
// shards live in other processes.  Locks, intention lists, the WAL, and
// the clock all live on the serving shards; the client keeps only a
// catalog entry per object (name, scheme) and, per open transaction, the
// objects each branch touched.
//
// Event recording is client-side: the dialing process records invoke and
// respond events when an RPC is granted and commit/abort events when the
// outcome is learned, so a shared recorder sees one global history across
// every shard it dialed and Verify proves distributed atomicity without
// collecting logs from the servers.

// ErrOutcomeUnknown reports a commit whose fate could not be learned: the
// request may or may not have reached the shard before the connection
// failed, and a status probe could not settle it.  The transaction must
// NOT be retried blindly — its effects may already be durable.  Callers
// surface it instead of retrying.
var ErrOutcomeUnknown = errors.New("hybridcc: transaction outcome unknown")

// RemoteConn is one dialed shard: the operation path a dialed cluster
// drives (registration, calls, fast-path commits, snapshot reads, stats)
// plus the commit protocol's transport view, both multiplexed over the
// same connections.  Every method but StampParticipants, Transport and
// Close is an RPC to the shard process that owns the objects; errors are
// the transport's, mapped onto the core sentinels where the server
// reported one.  internal/netproto's ShardClient is the production
// implementation; the package tests script an in-process fake.
type RemoteConn interface {
	// Register creates (or idempotently re-opens) an object on the shard.
	// typeName names a built-in specification (baseline.DescriptorFor);
	// scheme "" means the shard's default.
	Register(name, typeName, scheme string) error
	// SetScheme switches the named object's policy on the shard.
	SetScheme(name, scheme string) error

	// Call executes one update-transaction operation.
	Call(ctx context.Context, tx histories.TxID, obj histories.ObjID, inv spec.Invocation) (string, error)
	// Commit commits a single-shard transaction on the shard, returning
	// the shard-chosen timestamp.  A transport failure after the request
	// may have reached the shard yields ErrOutcomeUnknown.
	Commit(ctx context.Context, tx histories.TxID) (histories.Timestamp, error)
	// Abort aborts the transaction on the shard.
	Abort(ctx context.Context, tx histories.TxID) error
	// StampParticipants records, client-side, the site count the next
	// Prepare for tx carries (the server stamps it into the commit record
	// for torn-leg detection).
	StampParticipants(tx histories.TxID, n int)

	// ReadBegin opens a read-only branch on the shard, pinning compaction,
	// and returns the shard clock's current bound for snapshot-timestamp
	// election.
	ReadBegin(ctx context.Context, tx histories.TxID) (histories.Timestamp, error)
	// ReadActivate fixes the branch's snapshot timestamp.
	ReadActivate(ctx context.Context, tx histories.TxID, ts histories.Timestamp) error
	// ReadCall executes one read-only operation at the branch's timestamp.
	ReadCall(ctx context.Context, tx histories.TxID, obj histories.ObjID, inv spec.Invocation) (string, error)
	// ReadComplete finishes the branch (commit or abort), releasing its pin.
	ReadComplete(ctx context.Context, tx histories.TxID, commit bool) error

	// Stats fetches the shard's counters.
	Stats(ctx context.Context) (core.StatsSnapshot, error)

	// Transport returns the commitproto view of the shard, used by the
	// cluster coordinator's two-phase commit.
	Transport() commitproto.Transport
	// Close releases the connection pool.
	Close() error
}

// RemoteOptions configures NewRemote.
type RemoteOptions struct {
	// CommitTimeout bounds each commit-protocol round trip (zero means
	// DefaultCommitTimeout).
	CommitTimeout time.Duration
	// Sink observes this client's transaction events across all shards,
	// producing one globally well-formed history for verification.  The
	// events are recorded client-side as RPCs are granted, so the sink
	// sees exactly this client's transactions.
	Sink core.SeqSink
	// IDPrefix is folded into every transaction identifier ("T<prefix><n>",
	// "R<prefix><n>").  Shard servers key branches, WAL records, and
	// outcomes by identifier, so two clients of the same shard MUST use
	// distinct prefixes or their transactions collide.
	IDPrefix string
	// OnDecision, when set, is installed as the coordinator's decision
	// log: it runs after every vote is in, before any shard is told to
	// commit.  The dialing client uses it to remember commit decisions, so
	// a shard that crashed after preparing can be fed its decision on
	// reconnect (netproto's handshake resolution).
	OnDecision func(tx histories.TxID, ts histories.Timestamp) error
	// OnDecisionResolved, when set, runs after every shard acknowledged a
	// commit decision.  The shard server acks a decision only once the
	// branch's commit record is durable, so the ledger entry OnDecision
	// wrote for this transaction can never be needed again — the dialing
	// client uses this to prune its decision ledger.
	OnDecisionResolved func(tx histories.TxID, ts histories.Timestamp)
	// CloseHook runs at the end of Close, after every connection closed.
	CloseHook func() error
}

// NewRemote assembles a Cluster over dialed shards: same API, same
// placement function, same commit protocol — but every branch operation
// is an RPC and the participants live in other processes.  conns[i] must
// be connected to the server for shard i of a len(conns)-shard cluster.
//
// The coordinator draws commit timestamps from the clock congruent to
// len(conns) modulo len(conns)+1 — the same class an in-process cluster's
// coordinator uses, disjoint from every shard's fast-path class, so the
// global timestamp discipline (precedes ⊆ TS) carries over unchanged.
func NewRemote(conns []RemoteConn, opts RemoteOptions) (*Cluster, error) {
	n := len(conns)
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard connection, got %d", n)
	}
	if opts.CommitTimeout <= 0 {
		opts.CommitTimeout = DefaultCommitTimeout
	}
	c := &Cluster{
		names:     make([]string, n),
		remotes:   conns,
		sink:      opts.Sink,
		catalog:   make(map[histories.ObjID]*remoteObject),
		idPrefix:  opts.IDPrefix,
		closeHook: opts.CloseHook,
	}
	for i := range conns {
		c.names[i] = fmt.Sprintf("shard%d", i)
	}
	c.coordClock = tstamp.NewNodeClock(n, n+1)
	c.coord = commitproto.NewCoordinator(c.coordClock, opts.CommitTimeout)
	if opts.OnDecision != nil {
		c.coord.SetDecisionLog(opts.OnDecision)
	}
	if opts.OnDecisionResolved != nil {
		c.coord.SetDecisionResolved(opts.OnDecisionResolved)
	}
	return c, nil
}

// remoteStatsTimeout bounds each shard's Stats RPC (Stats has no ctx
// parameter).
const remoteStatsTimeout = 5 * time.Second

// remoteStats fetches shard i's counters; an unreachable shard reports
// zero counters with StatsErr set.
func (c *Cluster) remoteStats(i int) core.StatsSnapshot {
	ctx, cancel := context.WithTimeout(context.Background(), remoteStatsTimeout)
	defer cancel()
	snap, err := c.remotes[i].Stats(ctx)
	if err != nil {
		return core.StatsSnapshot{StatsErr: err.Error()}
	}
	return snap
}

// record delivers one client-side event to the sink, if any.
func (c *Cluster) record(e histories.Event) {
	if c.sink != nil {
		c.sink.RecordSeq(c.sink.NextSeq(), e)
	}
}

// remoteObject is the client-side handle of an object a dialed shard
// serves: a catalog entry with no lock state.  It implements core.Ref.
type remoteObject struct {
	c       *Cluster
	shard   int
	name    histories.ObjID
	schemes []string
	granted atomic.Int64

	mu     sync.Mutex
	scheme string
}

// newRemoteObject registers name on shard (the shard resolves the type by
// specification name and builds its own policy set) and catalogs it.
func (c *Cluster) newRemoteObject(shard int, name string, sp spec.Spec, schemes []string, initial string) (*remoteObject, error) {
	if err := c.remotes[shard].Register(name, sp.Name(), initial); err != nil {
		return nil, err
	}
	o := &remoteObject{c: c, shard: shard, name: histories.ObjID(name), schemes: schemes, scheme: initial}
	c.catalogMu.Lock()
	c.catalog[o.name] = o
	c.catalogMu.Unlock()
	return o, nil
}

func (o *remoteObject) Name() histories.ObjID { return o.name }
func (o *remoteObject) Schemes() []string     { return append([]string(nil), o.schemes...) }

func (o *remoteObject) Scheme() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.scheme
}

// SetScheme switches the policy on the serving shard, then mirrors the
// switch into the catalog so Scheme keeps answering client-side.
func (o *remoteObject) SetScheme(scheme string) error {
	if err := o.c.remotes[o.shard].SetScheme(string(o.name), scheme); err != nil {
		return err
	}
	o.mu.Lock()
	o.scheme = scheme
	o.mu.Unlock()
	return nil
}

// Stats reports the client-side view: operations granted to this client
// and the catalogued scheme.  The lock counters live on the shard.
func (o *remoteObject) Stats() core.ObjectStatsSnapshot {
	return core.ObjectStatsSnapshot{Granted: o.granted.Load(), Scheme: o.Scheme()}
}

// CommittedState is unavailable client-side: the state lives in the
// shard process.
func (o *remoteObject) CommittedState() spec.State {
	panic(fmt.Sprintf("hybridcc: CommittedState of %s on a dialed cluster: committed state lives in the shard process; read it through Snapshot", o.name))
}

// remoteTx is a DTx's or DReadTx's branch on a dialed shard: the server
// holds the real transaction; the client keeps the objects it touched, for
// the completion events.  A read branch whose open or activation failed
// keeps the error: reads through it fail fast, and the snapshot reports
// the shard missing.
type remoteTx struct {
	c    *Cluster
	conn RemoteConn
	id   histories.TxID
	ctx  context.Context
	// Read branches only: the shard clock's bound at open, the snapshot
	// timestamp, and the sticky open/activation error.
	bound, ts histories.Timestamp
	err       error

	mu      sync.Mutex
	touched []*remoteObject
}

func (b *remoteTx) call(r core.Ref, inv spec.Invocation) (string, error) {
	if err := b.ctx.Err(); err != nil {
		return "", fmt.Errorf("hybridcc: %s on %s: %w", inv, r.Name(), err)
	}
	return b.grant(r.(*remoteObject), inv, b.conn.Call)
}

func (b *remoteTx) readCall(r core.Ref, inv spec.Invocation) (string, error) {
	if b.err != nil {
		return "", fmt.Errorf("hybridcc: read of %s at %s: branch unusable: %w", inv, r.Name(), b.err)
	}
	if err := b.ctx.Err(); err != nil {
		return "", fmt.Errorf("hybridcc: read of %s at %s: %w", inv, r.Name(), err)
	}
	return b.grant(r.(*remoteObject), inv, b.conn.ReadCall)
}

// grant runs one operation RPC and, once the shard granted it, records
// its invoke and respond events.
func (b *remoteTx) grant(o *remoteObject, inv spec.Invocation,
	rpc func(context.Context, histories.TxID, histories.ObjID, spec.Invocation) (string, error)) (string, error) {
	res, err := rpc(b.ctx, b.id, o.name, inv)
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	if !slices.Contains(b.touched, o) {
		b.touched = append(b.touched, o)
	}
	b.mu.Unlock()
	o.granted.Add(1)
	b.c.record(histories.InvokeEvent(b.id, o.name, inv))
	b.c.record(histories.RespondEvent(b.id, o.name, res))
	return res, nil
}

// commit runs the shard's whole local commit (timestamp draw, WAL append,
// merge).  An unknowable outcome — the connection died with the request
// possibly delivered — surfaces as ErrOutcomeUnknown with NO completion
// events: the transaction stays incomplete in the recorded history
// (verify-safe either way) rather than recorded with the wrong fate.
func (b *remoteTx) commit() error {
	ts, err := b.conn.Commit(b.ctx, b.id)
	if err != nil {
		if !errors.Is(err, ErrOutcomeUnknown) {
			b.recordCompletion(false, 0)
		}
		return err
	}
	b.recordCompletion(true, ts)
	return nil
}

// abort is best-effort: a lost abort resolves server-side when the
// connection drops (non-prepared) or by presumed abort (prepared).
func (b *remoteTx) abort() {
	_ = b.conn.Abort(context.Background(), b.id)
	b.recordCompletion(false, 0)
}

// commitAt records a decided commit.  The decision itself already
// travelled to the shard through the protocol transport (the connection
// delivers, and redelivers, it).
func (b *remoteTx) commitAt(ts histories.Timestamp) error {
	b.recordCompletion(true, ts)
	return nil
}

// transport stamps the site count, which rides the Prepare RPC so the
// serving shard stamps it into its commit record, and returns the
// connection's protocol view.
func (b *remoteTx) transport(n int) commitproto.Transport {
	b.conn.StampParticipants(b.id, n)
	return b.conn.Transport()
}

// beginRemoteRead opens a read branch: the pin lives on the serving
// shard, and ReadBegin reports the shard clock's bound for timestamp
// election.
func (c *Cluster) beginRemoteRead(ctx context.Context, shard int, id histories.TxID) *remoteTx {
	b := &remoteTx{c: c, conn: c.remotes[shard], id: id, ctx: ctx}
	b.bound, b.err = b.conn.ReadBegin(ctx, id)
	return b
}

func (b *remoteTx) clockBound() histories.Timestamp { return b.bound }

func (b *remoteTx) activate(ts histories.Timestamp) error {
	b.ts = ts
	if b.err == nil {
		b.err = b.conn.ReadActivate(b.ctx, b.id, ts)
	}
	return b.err
}

// finish releases the shard-side pin, best-effort (a lost release
// resolves when the connection drops).
func (b *remoteTx) finish(commit bool) error {
	_ = b.conn.ReadComplete(context.Background(), b.id, commit)
	b.recordCompletion(commit, b.ts)
	return nil
}

// recordCompletion records one commit (at ts) or abort event per touched
// object.
func (b *remoteTx) recordCompletion(commit bool, ts histories.Timestamp) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, o := range b.touched {
		if commit {
			b.c.record(histories.CommitEvent(b.id, o.name, ts))
		} else {
			b.c.record(histories.AbortEvent(b.id, o.name))
		}
	}
}
