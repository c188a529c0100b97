package core

import (
	"dmx/internal/expr"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// ScanOptions configure a key-sequential access. Start/End bound the scan
// in key order (nil = unbounded; End is exclusive). Filter, its parameter
// markers already bound, is compiled once when the scan opens and matched
// by the extension against buffer-resident records (expr.Program);
// non-qualifying entries are skipped without being returned. Fields
// selects the record fields to return (nil = all). A direct-by-key fetch
// takes its filter compiled instead (StorageInstance.FetchByKey).
type ScanOptions struct {
	Start, End types.Key
	Filter     *expr.Expr
	Fields     []int
}

// ScanPos is an opaque saved key-sequential access position. Positions are
// captured when a rollback point is established and restored after partial
// rollback (position state changes are not logged, for performance).
type ScanPos []byte

// Scan is a key-sequential access over a relation storage method or an
// access path. A scan is "on" the last item returned; if that item is
// deleted the scan is positioned just after it; Next always returns the
// next item after the current position.
//
// For storage-method scans Next returns the record key and the selected
// record fields. For access-path scans Next returns the mapped record key
// and, when the access path stores them, the access-path key fields. An
// empty, non-nil ScanOptions.Fields asks an access path for the keys alone:
// one that honours it returns a nil record.
type Scan interface {
	// Next returns the next qualifying item. ok is false at exhaustion.
	Next() (key types.Key, rec types.Record, ok bool, err error)
	// Pos returns the current restorable position.
	Pos() ScanPos
	// Restore re-positions the scan to a previously captured position.
	Restore(pos ScanPos) error
	// Close terminates the key-sequential access. All scans are closed at
	// transaction termination because locks are released then.
	Close() error
}

// CostRequest is the query planner's question to a storage method or
// access path: given these eligible predicates, what would an access cost,
// and can it deliver the tuples ordered by particular record fields?
type CostRequest struct {
	// Conjuncts are the eligible predicates supplied by the query planner,
	// over the relation's field positions.
	Conjuncts []*expr.Expr
	// RecordCount is the planner's current cardinality estimate.
	RecordCount int
	// OrderBy, when non-empty, asks whether the access can return records
	// ordered (ascending) by these fields; extensions that can set
	// CostEstimate.Ordered, letting the planner skip a sort.
	OrderBy []int
	// ConjunctSel, when non-nil, is parallel to Conjuncts: the planner's
	// statistics-derived selectivity for each conjunct (from histograms and
	// distinct counts). Extensions should prefer these over textbook
	// guesses; entries < 0 mean "no estimate for this conjunct".
	ConjunctSel []float64
	// Scratch, when non-nil, is planner-owned space for the answer's
	// Start, End and Handled: a path may append them to it instead of
	// allocating them (smutil.KeyRange does). The planner empties it
	// before it asks again, so a path keeps nothing it appended and reads
	// nothing that was there before; a path that ignores it allocates.
	Scratch *KeyScratch
}

// KeyScratch is CostRequest.Scratch: the bytes of an answer's key bounds
// and the indexes of its handled conjuncts, appended.
type KeyScratch struct {
	Keys    []byte
	Handled []int
}

// Reset empties the scratch, keeping its capacity.
func (s *KeyScratch) Reset() { s.Keys, s.Handled = s.Keys[:0], s.Handled[:0] }

// CostEstimate is an extension's answer: whether the path is usable for
// the request, the predicted I/O and CPU effort, estimated selectivity,
// and which conjuncts the path handles itself (so the executor need not
// re-apply them).
type CostEstimate struct {
	Usable      bool
	IO          float64 // estimated page reads
	CPU         float64 // estimated records touched
	Selectivity float64 // fraction of records expected to qualify
	Instance    int     // which instance of the attachment type
	// Handled indexes into CostRequest.Conjuncts for predicates the path
	// applies itself (e.g. the B-tree key range).
	Handled []int
	// Ordered reports that the access returns records ordered by the
	// requested OrderBy fields.
	Ordered bool
	// Start/End are the key bounds an index scan should use.
	Start, End types.Key
	// Point reports that the request binds the path's whole key by
	// equality, so Start is a complete access-path key: the planner serves
	// the access with a direct-by-key probe (Relation.OpenAccessFetch with
	// point set: relation intention lock plus record locks) instead of a
	// key-sequential access (relation S). Paths that cannot scan at all — hash indexes — always
	// set it.
	Point bool
}

// Total returns the weighted cost used for comparison (I/O dominates, as
// in 1987).
func (c CostEstimate) Total() float64 { return c.IO*10 + c.CPU }

// ColumnStats summarize one column's value distribution for the planner.
type ColumnStats struct {
	// Distinct is the approximate number of distinct non-null values.
	Distinct float64
	// Min/Max are the observed value watermarks (monotone approximations).
	Min, Max types.Value
	// Hist, when non-empty, holds B+1 ascending equi-depth bucket bounds:
	// each adjacent pair [Hist[i], Hist[i+1]) holds ~1/B of the rows.
	Hist []types.Value
	// NullFrac is the fraction of rows with a null in this column.
	NullFrac float64
}

// TableStats is a relation-level statistics snapshot.
type TableStats struct {
	Rows int64
	Cols map[int]ColumnStats
}

// TableStatsProvider is implemented by attachment instances that maintain
// relation statistics (the stats attachment). The planner discovers it by
// type assertion, keeping plan decoupled from concrete attachment types.
type TableStatsProvider interface {
	TableStats() TableStats
}

// StorageInstance is the runtime handle for one relation's storage. The
// generic direct operations on stored relations are its methods; the
// owning StorageOps table opens instances from the relation descriptor.
type StorageInstance interface {
	// Insert stores rec and returns its record key. The storage method
	// defines and interprets record keys (record addresses, field
	// compositions, ...).
	Insert(tx *txn.Txn, rec types.Record) (types.Key, error)
	// Update replaces the record at key with newRec, returning the
	// (possibly changed) record key.
	Update(tx *txn.Txn, key types.Key, oldRec, newRec types.Record) (types.Key, error)
	// Delete removes the record at key. oldRec is the current value (the
	// caller has fetched it to notify attachments).
	Delete(tx *txn.Txn, key types.Key, oldRec types.Record) error
	// FetchByKey is the direct-by-key access: it returns the selected
	// fields of the record at key, first matching filter, which arrives
	// compiled (nil: none), against the buffer-resident record
	// (ErrFiltered when rejected, ErrNotFound when absent). fields nil
	// returns all fields. Like any Program, filter serves one caller at a
	// time.
	FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Program) (types.Record, error)
	// OpenScan starts a key-sequential access in record-key order.
	OpenScan(tx *txn.Txn, opts ScanOptions) (Scan, error)
	// EstimateCost assists the query planner.
	EstimateCost(req CostRequest) CostEstimate
	// RecordCount returns the current number of stored records.
	RecordCount() int
	// ApplyLogged applies a logged modification payload of transaction
	// txnID without re-logging: the recovery driver calls it with
	// undo=true to reverse the modification (veto rollback, abort, partial
	// rollback) and with undo=false to repeat it (restart redo). Most
	// methods ignore txnID; a partitioned relation routes a live
	// transaction's rollback through that transaction's staged shard
	// writes.
	ApplyLogged(txnID wal.TxnID, payload []byte, undo bool) error
}

// StorageOps is one storage method's table of generic operations — the
// entries installed in the storage-method procedure vectors. All fields
// are required unless noted.
type StorageOps struct {
	ID   SMID
	Name string
	// ValidateAttrs checks a DDL attribute/value list during parsing.
	ValidateAttrs func(schema *types.Schema, attrs AttrList) error
	// Create initialises storage for a new relation and returns the
	// storage method descriptor to place in the RelDesc header.
	Create func(env *Env, tx *txn.Txn, rd *RelDesc, attrs AttrList) ([]byte, error)
	// Open returns the runtime instance described by rd. Called once per
	// (Env, relation); the environment caches instances.
	Open func(env *Env, rd *RelDesc) (StorageInstance, error)
	// Drop releases the relation's storage. It runs as a deferred action
	// after commit so the drop can be undone until then. Optional.
	Drop func(env *Env, rd *RelDesc) error
	// Snapshot hands every stored record of inst to emit, in record-key
	// order, as the record's key and its stored encoding (the bytes
	// types.Record.AppendEncode writes): a truncating checkpoint embeds
	// them in the log, since the method logs its modifications and keeps
	// its records where only the log makes them durable. emit runs with no
	// page pinned and no storage latch held; its arguments are valid only
	// until it returns, and its error ends the snapshot. The checkpoint
	// calls it with writers quiesced. Nil (optional) for methods that are
	// not snapshotted: unlogged ones (temp) and ones whose data lives
	// elsewhere (remote).
	Snapshot func(inst StorageInstance, emit func(key types.Key, stored []byte) error) error
	// AfterRecovery runs at the end of Env.Recover, after redo/undo and
	// attachment rebuild. Storage methods whose durable state lives
	// outside the local log use it to reconcile that state with the
	// recovered local decision history — partitioned relations resolve
	// shards left prepared-but-undecided by a coordinator crash.
	// Optional.
	AfterRecovery func(env *Env) error
}

// VersionedStorage is implemented by storage instances that stamp record
// versions (MVCC), and implementing it is the whole declaration: read-only
// snapshot transactions then read the relation with zero lock-manager
// acquisitions, so FetchByKey/OpenScan must answer with snapshot-consistent
// versions when tx.ReadOnly(). FetchByKey is ErrNotFound for a key not in
// the snapshot, which is how unversioned access-path results are filtered.
// Relations of other methods keep ordinary share-locked reads for
// read-only transactions.
type VersionedStorage interface {
	// FreezeVersions drops every version chain. A truncating checkpoint —
	// which only runs with writers quiesced and no snapshot open — calls
	// it afterwards: current state, which the checkpoint just captured,
	// becomes the version every future snapshot starts from, and no chain
	// entry outlives the log records it points at.
	FreezeVersions()
	// FetchRun is FetchByKey for a run of keys in read-only tx's
	// snapshot, answered in one call: out[i] (len(out) == len(keys)) gets
	// keys[i]'s record, or the ErrNotFound or ErrFiltered FetchByKey
	// would report for it. Any other error fails the whole run. The
	// filter arrives compiled (nil: none), as FetchByKey's does, once for
	// every run of the read that asks.
	FetchRun(tx *txn.Txn, keys []types.Key, fields []int, filter *expr.Program, out []Fetched) error
}

// Fetched is one key's answer in a FetchRun.
type Fetched struct {
	Rec types.Record
	Err error // nil, or an ErrNotFound or ErrFiltered
}

// AttachmentInstance is the runtime handle for all instances of one
// attachment type on one relation. Its modification methods are the
// attached procedures: they are invoked only as side effects of relation
// modifications, at most once per modification, and must service every
// instance of the type currently defined on the relation. Returning an
// error vetoes the entire relation modification, which the common recovery
// log then undoes.
type AttachmentInstance interface {
	// OnInsert is passed the newly assigned record key and the new record.
	OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error
	// OnUpdate is passed the old and new record keys and values.
	OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error
	// OnDelete is passed the record key and the old record.
	OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error
	// ApplyLogged mirrors StorageInstance.ApplyLogged for the attachment's
	// own logged state changes. Attachment types with no associated
	// storage may return nil unconditionally.
	ApplyLogged(payload []byte, undo bool) error
	// Reconfigure absorbs a descriptor change (instances added or
	// dropped, or a rolled-back change undone) without losing the state
	// of surviving instances.
	Reconfigure(rd *RelDesc) error
}

// AccessPath is implemented by attachment instances that provide access to
// relation data (B-tree, hash, R-tree, join indexes). Access paths map
// access-path keys to record keys: accesses take keys as input and return
// record keys (plus access-path key fields where stored). Instance numbers
// select among multiple instances of the type ("access via B-tree number
// 3"); instance numbering is attachment-defined and dense from 0.
type AccessPath interface {
	// LookupByKey is the direct-by-key access: record keys whose
	// access-path key equals key (possibly a partial key prefix).
	LookupByKey(tx *txn.Txn, instance int, key types.Key) ([]types.Key, error)
	// OpenScan starts a key-sequential access in access-path key order.
	OpenScan(tx *txn.Txn, instance int, opts ScanOptions) (Scan, error)
	// EstimateCost reports the best estimate across the type's instances.
	EstimateCost(req CostRequest) CostEstimate
	// InstanceCount returns the number of instances on the relation.
	InstanceCount() int
}

// AttachmentOps is one attachment type's table of generic operations — the
// entries installed in the attachment procedure vectors.
type AttachmentOps struct {
	ID   AttID
	Name string
	// ValidateAttrs checks a DDL attribute/value list during parsing.
	ValidateAttrs func(env *Env, rd *RelDesc, attrs AttrList) error
	// Create adds an instance to the relation. prior is the type's current
	// descriptor field (nil if this is the first instance); Create returns
	// the new field value, encoding all instances of the type.
	Create func(env *Env, tx *txn.Txn, rd *RelDesc, prior []byte, attrs AttrList) ([]byte, error)
	// Drop removes the instance selected by attrs from the descriptor
	// field, returning the new value (nil when no instances remain).
	// Optional; attachments without Drop are dropped whole.
	Drop func(env *Env, tx *txn.Txn, rd *RelDesc, prior []byte, attrs AttrList) ([]byte, error)
	// Open returns the runtime instance servicing all of the type's
	// instances on rd. Called once per (Env, relation); cached.
	Open func(env *Env, rd *RelDesc) (AttachmentInstance, error)
	// Build populates instance state from the relation's existing
	// contents (e.g. indexing pre-existing records). Optional.
	//
	// newOnly is true when a single new instance was just created by DDL:
	// only the newest def may be populated, because the type's other
	// instances on the relation are already maintained and re-applying
	// their entries corrupts duplicate-sensitive state (hash buckets,
	// counters) and logs spurious entries whose undo would strip live
	// state if the DDL transaction aborts. newOnly is false at restart
	// rebuild, where every instance starts empty.
	Build func(env *Env, tx *txn.Txn, rd *RelDesc, newOnly bool) error
}
