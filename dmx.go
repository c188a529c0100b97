// Package dmx is a relational database engine built around the data
// management extension architecture of Lindsay, McPherson & Pirahesh
// (SIGMOD 1987): relation storage methods and attachments (access paths,
// integrity constraints, and triggers) are alternative implementations of
// generic abstractions, installed in procedure vectors and coordinated by
// common recovery, locking, event, and predicate-evaluation services.
//
// Opening a database links in the factory extensions:
//
//	storage methods: temp, heap, btree, memory, append, remote, part
//	attachments:     btree, hash, rtree, joinindex, check, refint,
//	                 trigger, stats, aggregate, unique
//
// The quickest way in is the SQL-ish session:
//
//	db, _ := dmx.Open(dmx.Config{})
//	db.Exec(`CREATE TABLE emp (eno INT NOT NULL, name STRING) USING heap`)
//	db.Exec(`CREATE INDEX byeno ON emp (eno)`)
//	db.Exec(`INSERT INTO emp VALUES (1, 'ada')`)
//	res, _ := db.Exec(`SELECT name FROM emp WHERE eno = 1`)
//
// Lower-level control (explicit transactions, direct generic-interface
// calls, custom extensions) is available through Env.
package dmx

import (
	"fmt"
	"io"
	"time"

	// Factory linking: importing an extension package installs its
	// operation tables in the default procedure-vector registry.
	_ "dmx/internal/att/aggmv"
	_ "dmx/internal/att/btreeix"
	"dmx/internal/att/check"
	_ "dmx/internal/att/hashidx"
	_ "dmx/internal/att/joinidx"
	_ "dmx/internal/att/refint"
	_ "dmx/internal/att/rtreeix"
	_ "dmx/internal/att/stats"
	"dmx/internal/att/trigger"
	_ "dmx/internal/att/unique"
	_ "dmx/internal/sm/appendsm"
	_ "dmx/internal/sm/btreesm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/sm/partsm"
	_ "dmx/internal/sm/syssm"
	_ "dmx/internal/sm/tempsm"

	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/expr"
	"dmx/internal/fault"
	"dmx/internal/pagefile"
	"dmx/internal/plan"
	"dmx/internal/remote"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// Re-exported core types, so applications speak one import path.
type (
	// Env is the database execution environment (see internal/core).
	Env = core.Env
	// Txn is a transaction handle.
	Txn = txn.Txn
	// Relation is the runtime handle for direct generic-interface calls.
	Relation = core.Relation
	// Record is a tuple in the common representation.
	Record = types.Record
	// Value is a field value in the common representation.
	Value = types.Value
	// Key is an opaque record key.
	Key = types.Key
	// Schema describes a relation's columns.
	Schema = types.Schema
	// Column describes one relation column.
	Column = types.Column
	// AttrList is a DDL attribute/value list.
	AttrList = core.AttrList
	// Expr is a predicate or scalar expression.
	Expr = expr.Expr
	// Box is a spatial rectangle for the R-tree access path.
	Box = expr.Box
	// Query is a planner query.
	Query = plan.Query
	// JoinSpec is a planner join clause.
	JoinSpec = plan.JoinSpec
	// Result is a statement result.
	Result = ddl.Result
	// Session executes SQL-ish statements.
	Session = ddl.Session
	// TriggerFunc is a trigger body.
	TriggerFunc = trigger.Func
	// TriggerEvent says which modification fired a trigger.
	TriggerEvent = trigger.Event
	// RelDesc is the extensible relation descriptor.
	RelDesc = core.RelDesc
	// Privilege is an authorization level for the uniform authorization
	// facility (db.Env.Authz).
	Privilege = core.Privilege
	// ForeignServer is a simulated foreign database for the remote
	// storage method.
	ForeignServer = remote.Server
)

// Value constructors, re-exported.
var (
	Int    = types.Int
	Float  = types.Float
	Str    = types.Str
	Bytes  = types.Bytes
	Bool   = types.Bool
	Null   = types.Null
	NewBox = expr.NewBox
)

// Config assembles a database.
type Config struct {
	// LogPath persists the common recovery log to a file; empty keeps it
	// in memory (still fully transactional, but not restart-durable).
	LogPath string
	// PoolFrames is the shared buffer pool capacity (default 256).
	PoolFrames int
	// DiskPath backs the buffer pool with a real file; empty uses an
	// in-memory disk with I/O accounting.
	DiskPath string
	// Recover replays the log at open (use with LogPath after a restart).
	Recover bool
	// Servers names the foreign and shard servers that relations created
	// USING remote WITH (server=<name>) or USING part WITH
	// (servers=<name>,...) reach. They are attached before recovery, which
	// needs every server a relation names.
	Servers map[string]*ForeignServer
	// CheckpointEvery takes a checkpoint (and truncates the log head)
	// after that many log appends. 0 checkpoints only at Close; negative
	// disables checkpointing entirely.
	CheckpointEvery int
	// Faults arms the engine's crash-point fault injector (testing; see
	// internal/fault). Nil leaves every site disarmed.
	Faults *fault.Injector
	// TraceSample is the fraction of transactions that carry a detailed
	// span trace (0 disables sampling; 1 traces everything). Slow
	// transactions are always traced when SlowThreshold is set.
	TraceSample float64
	// SlowThreshold marks any span (and its transaction) slower than this
	// as slow: the trace is kept in the ring regardless of sampling and a
	// structured event line is written to SlowLog. 0 disables.
	SlowThreshold time.Duration
	// SlowLog receives one JSON line per slow span/transaction; nil
	// discards them (the trace ring still keeps slow traces).
	SlowLog io.Writer
}

// DB is an open database.
type DB struct {
	// Env exposes the execution environment for direct generic-interface
	// use and for registering application extensions.
	Env *Env

	session *Session
	log     *wal.Log
	disk    pagefile.Disk
	ckptOff bool
}

// Open assembles a database from cfg.
func Open(cfg Config) (*DB, error) {
	var (
		log  *wal.Log
		disk pagefile.Disk
		err  error
	)
	if cfg.LogPath != "" {
		if log, err = wal.Open(cfg.LogPath); err != nil {
			return nil, err
		}
	}
	if cfg.DiskPath != "" {
		if disk, err = pagefile.OpenFileDisk(cfg.DiskPath); err != nil {
			return nil, err
		}
	}
	env := core.NewEnv(core.Config{
		Log:           log,
		Disk:          disk,
		PoolFrames:    cfg.PoolFrames,
		Faults:        cfg.Faults,
		TraceSample:   cfg.TraceSample,
		SlowThreshold: cfg.SlowThreshold,
		SlowLog:       cfg.SlowLog,
	})
	db := &DB{Env: env, log: log, disk: disk, ckptOff: cfg.CheckpointEvery < 0}
	db.session = ddl.NewSession(env)
	for name, srv := range cfg.Servers {
		partsm.AttachServer(env, name, srv)
	}
	if cfg.Recover {
		if err := env.Recover(); err != nil {
			// A checkpoint now would snapshot the half-recovered state
			// and truncate the log that still holds the rest.
			db.ckptOff = true
			db.Close()
			return nil, fmt.Errorf("dmx: recovery: %w", err)
		}
	}
	if cfg.CheckpointEvery > 0 && log != nil {
		every := cfg.CheckpointEvery
		// Checked at every transaction end: the hook runs outside
		// transaction locks, and Checkpoint itself backs off (busy) when
		// concurrent writers still hold relation locks.
		env.Txns.OnEnd = func() {
			if log.AppendsSinceCheckpoint() >= every {
				_ = env.Checkpoint() // opportunistic; retried at next txn end
			}
		}
	}
	return db, nil
}

// Checkpoint takes a checkpoint now: the active-transaction table
// and a replayable snapshot of every relation are appended to the log and
// the log head before them is truncated, bounding restart-redo work. It
// returns core.ErrCheckpointBusy (without harm) when concurrent writers
// hold relation locks.
func (db *DB) Checkpoint() error { return db.Env.Checkpoint() }

// Close takes a final checkpoint (unless disabled), flushes dirty buffer
// frames to the backing disk, and releases the database's file resources.
// In-flight transactions are not waited for.
func (db *DB) Close() error {
	var first error
	// The debug HTTP server (if serving) goes down first so no handler
	// observes the log or disk mid-teardown.
	if err := db.Env.StopDebug(); err != nil {
		first = err
	}
	if db.log != nil && !db.ckptOff {
		// Best effort: a clean shutdown leaves a compact log, so the next
		// open replays only the closing snapshot. Busy (in-flight writers)
		// is not an error — the full log still recovers.
		if err := db.Env.Checkpoint(); err != nil && err != core.ErrCheckpointBusy && first == nil {
			first = err
		}
	}
	// Dirty frames must reach the disk before it is closed; without this
	// a file-backed database reopened without log replay reads the zero
	// pages FileDisk.Allocate wrote at extension time.
	if err := db.Env.Pool.FlushAll(); err != nil && first == nil {
		first = err
	}
	// Storage instances are the state the checkpoint just read; only now
	// can those holding connections let go of them.
	if err := db.Env.Close(); err != nil && first == nil {
		first = err
	}
	if db.log != nil {
		if err := db.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if db.disk != nil {
		if err := db.disk.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Exec runs statements on the database's default session, returning the
// last statement's result. Use NewSession for concurrent sessions.
func (db *DB) Exec(stmts ...string) (*Result, error) {
	var res *Result
	for _, s := range stmts {
		var err error
		res, err = db.session.Exec(s)
		if err != nil {
			return nil, fmt.Errorf("dmx: %q: %w", s, err)
		}
	}
	return res, nil
}

// NewSession returns a fresh statement session (sessions are
// goroutine-confined; make one per worker).
func (db *DB) NewSession() *Session { return ddl.NewSession(db.Env) }

// Begin starts an explicit transaction for direct generic-interface use.
func (db *DB) Begin() *Txn { return db.Env.Begin() }

// BeginReadOnly starts a snapshot read-only transaction: it observes the
// state committed when it began, refuses modifications, and — on
// relations of MVCC storage methods (heap) — reads with zero
// lock-manager acquisitions, so it never blocks writers or waits for
// them.
func (db *DB) BeginReadOnly() *Txn { return db.Env.BeginReadOnly() }

// Relation opens the runtime handle for a relation by name.
func (db *DB) Relation(name string) (*Relation, error) {
	return db.Env.OpenRelationByName(name)
}

// Plan binds a planner query; the bound plan revalidates itself against
// DDL changes on every execution.
func (db *DB) Plan(q Query) (*plan.Bound, error) {
	return plan.New(db.Env).Plan(q)
}

// RegisterFunction installs a function callable from predicates.
func (db *DB) RegisterFunction(name string, fn func(args []Value) (Value, error)) {
	db.Env.Eval.Register(name, fn)
}

// RegisterTrigger installs a trigger body callable from trigger
// attachments (call=<name>).
func (db *DB) RegisterTrigger(name string, fn TriggerFunc) {
	trigger.Register(db.Env, name, fn)
}

// RegisterCheckPredicate registers a structured predicate under a token
// usable as the predicate= attribute of check-constraint attachments.
func (db *DB) RegisterCheckPredicate(token string, e *Expr) {
	check.RegisterPredicate(token, e)
}

// AttachShardServer attaches a foreign or shard server to the open
// database, as Config.Servers does before recovery.
func (db *DB) AttachShardServer(name string, srv *ForeignServer) {
	partsm.AttachServer(db.Env, name, srv)
}

// Authorization levels, re-exported.
const (
	PrivRead  = core.PrivRead
	PrivWrite = core.PrivWrite
	PrivAdmin = core.PrivAdmin
)

// NewForeignServer creates a simulated foreign database with the given
// per-message latency.
func NewForeignServer(latency time.Duration) *ForeignServer {
	return remote.NewServer(latency)
}
