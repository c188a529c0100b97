// Package partsm implements the two storage methods that keep a
// relation's records on foreign servers behind the ordinary storage-method
// procedure vector: "part", a relation hash-sharded across N servers, and
// "remote", the paper's foreign-database storage method — the same store
// with a partition map of one shard whose table is the named foreign table
// and whose record keys the foreign server assigns.
//
// Direct-by-key operations route to the single shard owning the key
// (FNV-1a of the order-preserving key encoding modulo the shard count);
// key-sequential scans scatter to every shard and merge the per-shard
// cursors back into global key order. Transactions commit with two-phase
// commit: writes are staged on the shards under the local transaction id,
// every touched shard is prepared before the local commit record is
// appended, and the commit record — forced by the existing WAL
// group-commit machinery — IS the coordinator's logged decision. Recovery
// resolves shards left in doubt by a crash between prepare and decision
// delivery from the surviving log (presumed abort: no commit record means
// abort).
package partsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/fault"
	"dmx/internal/remote"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// DDL names of the two storage methods.
const (
	Name       = "part"
	RemoteName = "remote"
)

// DefaultScanBatchSize is how many records one per-shard scan round trip
// fetches unless the relation was created with a batch=<n> attribute.
const DefaultScanBatchSize = 100

// MaxShards bounds the shards=<n> attribute.
const MaxShards = 64

// ErrDuplicateKey is returned when inserting a record whose key fields
// collide with an existing record (the key fields are the primary key).
var ErrDuplicateKey = smutil.ErrDuplicateKey

const serverStateKey = "partsm.servers"

// AttachServer makes a foreign server reachable from relations created
// with servers=...,<name>,... (part) or server=<name> (remote) in this
// environment.
func AttachServer(env *core.Env, name string, srv *remote.Server) {
	reg := servers(env)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.byName[name] = srv
}

type serverRegistry struct {
	mu     sync.Mutex
	byName map[string]*remote.Server
}

func servers(env *core.Env) *serverRegistry {
	if v, ok := env.ExtState(serverStateKey); ok {
		return v.(*serverRegistry)
	}
	reg := &serverRegistry{byName: make(map[string]*remote.Server)}
	env.SetExtState(serverStateKey, reg)
	return reg
}

func lookupServer(env *core.Env, name string) (*remote.Server, error) {
	reg := servers(env)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	srv, ok := reg.byName[name]
	if !ok {
		return nil, fmt.Errorf("partsm: no foreign server %q attached to this environment", name)
	}
	return srv, nil
}

func init() {
	part := storageOps(core.SMPart, Name, describePart, "key", "shards", "servers", "batch")
	// Shard contents live on the remote servers, but every modification is
	// logged locally and checkpoints embed the full contents, so a crash
	// that loses the servers can rebuild every shard from the local log
	// alone.
	part.Snapshot = snapshot
	part.Drop = dropShardTables
	part.AfterRecovery = Resolve // covers remote relations too
	core.RegisterStorageMethod(part)

	// The foreign table is the foreign database's own durable data: it is
	// not embedded in checkpoints and not dropped with the local relation.
	core.RegisterStorageMethod(storageOps(core.SMRemote, RemoteName, describeRemote, "server", "table", "batch"))
}

// storageOps builds the operation table both methods share. describe turns
// a DDL attribute list into the method's storage descriptor (relName is
// empty while only validating).
func storageOps(id core.SMID, name string, describe func(relName string, schema *types.Schema, attrs core.AttrList) ([]byte, error), allowed ...string) *core.StorageOps {
	return &core.StorageOps{
		ID:   id,
		Name: name,
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			if err := attrs.CheckAllowed(name, allowed...); err != nil {
				return err
			}
			_, err := describe("", schema, attrs)
			return err
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			desc, err := describe(rd.Name, rd.Schema, attrs)
			if err != nil {
				return nil, err
			}
			// Opening creates the shard tables; nothing else is needed yet.
			s, err := open(env, rd, desc)
			if err != nil {
				return nil, err
			}
			return desc, s.Close()
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			return open(env, rd, rd.SMDesc)
		},
	}
}

// layout is what either method's storage descriptor decodes to.
type layout struct {
	keyFields []int // nil: the single shard's server assigns sequence keys
	batch     int
	shards    []shardSpec
}

type shardSpec struct {
	server string
	table  string
}

var errTruncatedDesc = errors.New("partsm: truncated storage descriptor")

// decodeLayout decodes desc, a descriptor of rd's storage method (rd's own
// once the relation exists).
func decodeLayout(rd *core.RelDesc, desc []byte) (layout, error) {
	if rd.SM == core.SMRemote {
		return decodeRemoteDesc(desc)
	}
	return decodePartDesc(rd.Name, desc)
}

// open dials every shard of the relation. Servers are volatile: a restart
// may reattach them empty, and log replay only touches shards with logged
// records, so each shard table is created here (idempotently) to keep
// scans over untouched shards from failing.
func open(env *core.Env, rd *core.RelDesc, desc []byte) (*store, error) {
	lay, err := decodeLayout(rd, desc)
	if err != nil {
		return nil, err
	}
	s := &store{
		env:       env,
		rd:        rd,
		keyFields: lay.keyFields,
		batch:     lay.batch,
		sessions:  make(map[wal.TxnID]*session),
		pending:   make(map[uint64]bool),
	}
	for _, spec := range lay.shards {
		srv, err := lookupServer(env, spec.server)
		if err != nil {
			s.Close()
			return nil, err
		}
		sh := shard{shardSpec: spec, srv: srv, client: remote.Dial(srv)}
		s.shards = append(s.shards, sh)
		if err := sh.client.CreateTable(spec.table); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// dropShardTables is part's Drop operation.
func dropShardTables(env *core.Env, rd *core.RelDesc) error {
	lay, err := decodeLayout(rd, rd.SMDesc)
	if err != nil {
		return err
	}
	for _, spec := range lay.shards {
		srv, err := lookupServer(env, spec.server)
		if err != nil {
			continue // server gone: nothing left to drop
		}
		client := remote.Dial(srv)
		client.DropTable(spec.table)
		client.Close()
	}
	return nil
}

func shardTable(relName string, i int) string {
	return fmt.Sprintf("%s#%d", relName, i)
}

func parseShardAttrs(attrs core.AttrList) (shards int, names []string, err error) {
	spec, ok := attrs.Get("servers")
	if !ok || spec == "" {
		return 0, nil, fmt.Errorf("partsm: the part storage method requires a servers=<name>,... attribute")
	}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return 0, nil, fmt.Errorf("partsm: empty server name in servers=%q", spec)
		}
		names = append(names, name)
	}
	shards = len(names)
	if spec, ok := attrs.Get("shards"); ok {
		n, err := strconv.Atoi(spec)
		if err != nil || n < 1 || n > MaxShards {
			return 0, nil, fmt.Errorf("partsm: shards must be 1..%d, got %q", MaxShards, spec)
		}
		shards = n
	}
	return shards, names, nil
}

func parseBatch(attrs core.AttrList) (int, error) {
	spec, ok := attrs.Get("batch")
	if !ok {
		return DefaultScanBatchSize, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 1 || n > 10000 {
		return 0, fmt.Errorf("partsm: batch must be 1..10000, got %q", spec)
	}
	return n, nil
}

// describePart encodes part's descriptor: the key-column list, the shard
// count, the batch size, and the server names shards are dealt across.
func describePart(_ string, schema *types.Schema, attrs core.AttrList) ([]byte, error) {
	fields, err := smutil.ParseKeyColumns(Name, schema, attrs)
	if err != nil {
		return nil, err
	}
	shards, names, err := parseShardAttrs(attrs)
	if err != nil {
		return nil, err
	}
	batch, err := parseBatch(attrs)
	if err != nil {
		return nil, err
	}
	out := smutil.AppendKeyColumns(nil, fields)
	out = append(out, byte(shards))
	out = binary.BigEndian.AppendUint16(out, uint16(batch))
	out = append(out, byte(len(names)))
	for _, n := range names {
		out = append(out, byte(len(n)))
		out = append(out, n...)
	}
	return out, nil
}

func decodePartDesc(relName string, b []byte) (layout, error) {
	fields, b, err := smutil.DecodeKeyColumns(b)
	if err != nil || len(b) < 4 {
		return layout{}, errTruncatedDesc
	}
	shards := int(b[0])
	batch := int(binary.BigEndian.Uint16(b[1:]))
	nn := int(b[3])
	b = b[4:]
	var names []string
	for i := 0; i < nn; i++ {
		if len(b) < 1 || len(b) < 1+int(b[0]) {
			return layout{}, errTruncatedDesc
		}
		names = append(names, string(b[1:1+int(b[0])]))
		b = b[1+int(b[0]):]
	}
	if shards < 1 || batch < 1 || len(names) < 1 {
		return layout{}, errTruncatedDesc
	}
	lay := layout{keyFields: fields, batch: batch}
	for i := 0; i < shards; i++ {
		lay.shards = append(lay.shards, shardSpec{server: names[i%len(names)], table: shardTable(relName, i)})
	}
	return lay, nil
}

// describeRemote encodes remote's descriptor: server name, foreign table
// name (default: the relation's), batch size.
func describeRemote(relName string, _ *types.Schema, attrs core.AttrList) ([]byte, error) {
	server, ok := attrs.Get("server")
	if !ok {
		return nil, fmt.Errorf("partsm: the remote storage method requires a server=<name> attribute")
	}
	tableName, ok := attrs.Get("table")
	if !ok {
		tableName = relName
	}
	batch, err := parseBatch(attrs)
	if err != nil {
		return nil, err
	}
	out := []byte{byte(len(server))}
	out = append(out, server...)
	out = append(out, byte(len(tableName)))
	out = append(out, tableName...)
	return binary.BigEndian.AppendUint16(out, uint16(batch)), nil
}

func decodeRemoteDesc(b []byte) (layout, error) {
	if len(b) < 1 || len(b) < 2+int(b[0]) {
		return layout{}, errTruncatedDesc
	}
	n := int(b[0])
	m := int(b[1+n])
	if len(b) < 2+n+m+2 {
		return layout{}, errTruncatedDesc
	}
	lay := layout{
		batch:  int(binary.BigEndian.Uint16(b[2+n+m:])),
		shards: []shardSpec{{server: string(b[1 : 1+n]), table: string(b[2+n : 2+n+m])}},
	}
	if lay.batch < 1 {
		lay.batch = DefaultScanBatchSize
	}
	return lay, nil
}

// shard is one partition's backend binding.
type shard struct {
	shardSpec
	srv    *remote.Server
	client *remote.Client
}

// session tracks one local transaction's footprint across the shards, so
// prepare and the decision are delivered only where writes were staged.
// touched is indexed by shard and walked in index order, which keeps the
// delivery order deterministic.
type session struct {
	touched []bool
}

// store is the storage instance for one relation of either method.
type store struct {
	env       *core.Env
	rd        *core.RelDesc
	keyFields []int
	batch     int
	shards    []shard

	// staged counts the writes staged through this store. A scan compares
	// counts to drop read-ahead that its own transaction's writes may have
	// made stale (under the scan's relation lock no other transaction
	// stages here; if one could, the cost would be a refetch).
	staged atomic.Uint64

	mu       sync.Mutex
	sessions map[wal.TxnID]*session
	// pending remembers decided transactions whose decision delivery
	// failed on some shard (true = commit): Resolve redelivers them. It
	// covers in-process delivery failures; across a restart the WAL's
	// commit records are the authoritative decision history.
	pending map[uint64]bool
	closing bool // Close was called while transactions held sessions
}

// Close implements io.Closer: every shard connection is dropped, which
// ends the server goroutine behind it. The environment calls it when the
// relation is dropped and when the environment itself closes. A
// transaction that staged writes still owes the shards its decision —
// the relation's own creation being rolled back, or a drop in the
// transaction that wrote — so while any session is live the connections
// stay up, and the last session's end drops them.
func (s *store) Close() error {
	s.mu.Lock()
	s.closing = len(s.sessions) > 0
	live := s.closing
	s.mu.Unlock()
	if live {
		return nil
	}
	return s.hangUp()
}

func (s *store) hangUp() error {
	var first error
	for i := range s.shards {
		if err := s.shards[i].client.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardOf routes a record key to its owning shard: FNV-1a (32-bit) of the
// key modulo the shard count, computed in place because every routed
// operation pays for it.
func (s *store) shardOf(key types.Key) int {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(len(s.shards)))
}

func txnID(tx *txn.Txn) uint64 {
	if tx == nil {
		return 0
	}
	return uint64(tx.ID())
}

// ensure registers the transaction's 2PC session on first write: the
// prepare/decision/cleanup hooks subscribe to the transaction's commit
// pipeline once, and the touched-shard set starts accumulating.
func (s *store) ensure(tx *txn.Txn) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[tx.ID()]
	if ok {
		s.mu.Unlock()
		return sess, nil
	}
	sess = &session{touched: make([]bool, len(s.shards))}
	s.sessions[tx.ID()] = sess
	s.mu.Unlock()
	if err := tx.Subscribe(txn.EventBeforePrepare, func(tx *txn.Txn, _ string) error {
		return s.prepare(tx, sess)
	}); err != nil {
		return nil, err
	}
	if err := tx.Subscribe(txn.EventCommit, func(tx *txn.Txn, _ string) error {
		s.decide(tx, sess, true)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tx.Subscribe(txn.EventAbort, func(tx *txn.Txn, _ string) error {
		s.decide(tx, sess, false)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tx.Subscribe(txn.EventEnd, func(tx *txn.Txn, _ string) error {
		s.mu.Lock()
		delete(s.sessions, tx.ID())
		last := s.closing && len(s.sessions) == 0
		s.mu.Unlock()
		if last {
			return s.hangUp()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return sess, nil
}

// prepare is phase one, fired before the commit record is appended: every
// touched shard must promise the staged writes can commit. A refusal
// vetoes the commit. The part.decide fault site sits between the last
// prepare acknowledgement and the local decision append — a crash there
// leaves every touched shard prepared and in doubt.
func (s *store) prepare(tx *txn.Txn, sess *session) error {
	for i, touched := range sess.touched {
		if !touched {
			continue
		}
		s.env.Obs.Part.Prepares.Add(1)
		if err := s.shards[i].client.Prepare(uint64(tx.ID())); err != nil {
			return fmt.Errorf("partsm: shard %d prepare: %w", i, err)
		}
	}
	if s.env.Faults != nil && slices.Contains(sess.touched, true) {
		if err := s.env.Faults.Hit(fault.SitePartDecide); err != nil {
			return err
		}
	}
	return nil
}

// decide is phase two, fired after the local decision is durable (commit)
// or the rollback is complete (abort). Delivery failures cannot change
// the decision — the transaction has already committed or aborted
// locally — so they are counted, remembered for redelivery, and
// swallowed.
func (s *store) decide(tx *txn.Txn, sess *session, commit bool) {
	var lost bool
	for i, touched := range sess.touched {
		if !touched {
			continue
		}
		var err error
		if commit {
			s.env.Obs.Part.Commits.Add(1)
			err = s.shards[i].client.CommitTxn(uint64(tx.ID()))
		} else {
			s.env.Obs.Part.Aborts.Add(1)
			err = s.shards[i].client.AbortTxn(uint64(tx.ID()))
		}
		if err != nil {
			s.env.Obs.Part.AckLost.Add(1)
			lost = true
		}
	}
	if lost {
		s.mu.Lock()
		s.pending[uint64(tx.ID())] = commit
		s.mu.Unlock()
	}
}

// stagePut buffers a put on the key's owning shard under transaction id,
// invisible to other transactions until the commit decision reaches the
// shard. The shard counts as touched even if the round trip fails: the
// write may have been staged with only its acknowledgement lost.
func (s *store) stagePut(id uint64, sess *session, key types.Key, rec types.Record) error {
	i := s.shardOf(key)
	sess.touched[i] = true
	s.staged.Add(1)
	_, err := s.shards[i].client.StagePut(id, s.shards[i].table, key, rec)
	return err
}

// stageDelete buffers a tombstone on the key's owning shard.
func (s *store) stageDelete(id uint64, sess *session, key types.Key) error {
	i := s.shardOf(key)
	sess.touched[i] = true
	s.staged.Add(1)
	return s.shards[i].client.StageDelete(id, s.shards[i].table, key)
}

// stageInsert stages rec at a new key on the key's owning shard, which
// refuses it when the transaction already sees a record there. A refused
// insert staged nothing, so it leaves the shard untouched.
func (s *store) stageInsert(id uint64, sess *session, key types.Key, rec types.Record) error {
	i := s.shardOf(key)
	s.staged.Add(1)
	err := s.shards[i].client.StageInsert(id, s.shards[i].table, key, rec)
	if errors.Is(err, remote.ErrDuplicateKey) {
		return smutil.DuplicateKey(rec, s.keyFields)
	}
	sess.touched[i] = true
	return err
}

// Insert implements core.StorageInstance: the record is staged on its
// owning shard. With key fields the key is composed locally and the shard
// checks it for a collision as it stages; without, the single shard's
// server assigns it.
func (s *store) Insert(tx *txn.Txn, rec types.Record) (types.Key, error) {
	sess, err := s.ensure(tx)
	if err != nil {
		return nil, err
	}
	// Staging comes before logging: a server-assigned key is not known
	// until the write is staged, and a duplicate is found as it stages. The
	// log append fails only when the log has crashed, and then the
	// transaction can no longer commit: its abort discards the unlogged
	// staged write with the rest.
	id := uint64(tx.ID())
	var key types.Key
	if s.keyFields == nil {
		sess.touched[0] = true
		s.staged.Add(1)
		key, err = s.shards[0].client.StagePut(id, s.shards[0].table, nil, rec)
	} else {
		key = types.EncodeKeyFields(rec, s.keyFields)
		err = s.stageInsert(id, sess, key, rec)
	}
	if err != nil {
		return nil, err
	}
	return key, core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModInsert, Key: key, New: rec})
}

// Update implements core.StorageInstance: updating key fields moves the
// record to its new key's owning shard — a genuinely multi-shard write,
// whose new key is staged, and checked for a collision, before it is
// logged. Server-assigned keys are stable.
func (s *store) Update(tx *txn.Txn, key types.Key, oldRec, newRec types.Record) (types.Key, error) {
	sess, err := s.ensure(tx)
	if err != nil {
		return nil, err
	}
	id := uint64(tx.ID())
	newKey := key
	if s.keyFields != nil {
		newKey = types.EncodeKeyFields(newRec, s.keyFields)
	}
	moved := !newKey.Equal(key)
	if moved {
		if err := s.stageInsert(id, sess, newKey, newRec); err != nil {
			return nil, err
		}
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModUpdate, Key: key, NewKey: newKey, Old: oldRec, New: newRec}); err != nil {
		return nil, err
	}
	if moved {
		return newKey, s.stageDelete(id, sess, key)
	}
	return newKey, s.stagePut(id, sess, newKey, newRec)
}

// Delete implements core.StorageInstance: a tombstone is staged on the
// owning shard.
func (s *store) Delete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	sess, err := s.ensure(tx)
	if err != nil {
		return err
	}
	if err := core.LogSM(tx, s.rd, core.ModPayload{Op: core.ModDelete, Key: key, Old: oldRec}); err != nil {
		return err
	}
	return s.stageDelete(uint64(tx.ID()), sess, key)
}

// FetchByKey implements core.StorageInstance: one round trip to the
// single shard owning the key, overlaying the transaction's own staged
// writes; the filter runs locally on the fetched record. Only the shard's
// "no such key" is ErrNotFound: a failed call stays an error.
func (s *store) FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Program) (types.Record, error) {
	sh := &s.shards[s.shardOf(key)]
	s.env.Obs.Part.RoutedReads.Add(1)
	rec, err := sh.client.Get(txnID(tx), sh.table, key)
	if errors.Is(err, remote.ErrKeyNotFound) {
		return nil, fmt.Errorf("%w: %v", core.ErrNotFound, err)
	}
	if err != nil {
		return nil, err
	}
	q := smutil.CompiledQualifier(filter, fields)
	return q.FetchRecord(rec)
}

// fullKeyLen walks the order-preserving key encoding and returns the
// number of complete field encodings it holds, or -1 when it ends inside
// a field. Scan routing uses it to distinguish a whole-key bound (safe
// to route to one shard) from an equality prefix over leading key fields
// (whose matching keys hash to arbitrary shards).
func fullKeyLen(b []byte) int {
	n := 0
	for len(b) > 0 {
		switch types.Kind(b[0]) {
		case types.KindNull:
			b = b[1:]
		case types.KindInt, types.KindBool, types.KindFloat:
			if len(b) < 9 {
				return -1
			}
			b = b[9:]
		case types.KindString, types.KindBytes:
			b = b[1:]
			for {
				if len(b) == 0 {
					return -1
				}
				if b[0] != 0x00 {
					b = b[1:]
					continue
				}
				if len(b) < 2 {
					return -1
				}
				if b[1] == 0x00 {
					b = b[2:] // terminator
					break
				}
				b = b[2:] // escaped 0x00
			}
		default:
			return -1
		}
		n++
	}
	return n
}

// OpenScan implements core.StorageInstance. A scan whose bounds pin a
// single whole key ([k, successor(k)) — the planner's point access) is
// routed to the key's owning shard; the key encoding is prefix-free per
// field, so no other same-arity key falls in that range. Everything else
// scatters to every shard and merges the per-shard cursors.
func (s *store) OpenScan(tx *txn.Txn, opts core.ScanOptions) (core.Scan, error) {
	sc := &scan{store: s, tx: txnID(tx), opts: opts, q: smutil.NewQualifier(s.env, opts), staged: s.staged.Load()}
	routed := -1
	if len(opts.Start) > 0 && len(opts.End) > 0 &&
		bytes.Equal(opts.End, smutil.PrefixSuccessor(opts.Start)) &&
		fullKeyLen(opts.Start) == len(s.keyFields) {
		routed = s.shardOf(opts.Start)
	}
	if routed >= 0 {
		s.env.Obs.Part.RoutedScans.Add(1)
		sc.cursors = []*cursor{{shard: routed}}
	} else {
		s.env.Obs.Part.ScatterScans.Add(1)
		for i := range s.shards {
			sc.cursors = append(sc.cursors, &cursor{shard: i})
		}
	}
	if opts.Start != nil {
		// Start is inclusive; the remote protocol is exclusive-after, so
		// position every cursor just before Start.
		sc.Started, sc.After = true, beforeKey(opts.Start)
		for _, c := range sc.cursors {
			c.after = sc.After
		}
	}
	return sc, nil
}

// beforeKey returns a key that sorts immediately before k (exclusive-after
// semantics then include k itself).
func beforeKey(k types.Key) types.Key {
	out := append(types.Key(nil), k...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] > 0 {
			out[i]--
			return append(out, 0xFF)
		}
		out = out[:i]
	}
	return nil
}

// EstimateCost implements core.StorageInstance: a whole-key point access
// is one round trip to one shard; anything else pays a fan-out of at
// least one round trip per shard, plus a batch round trip per batch of
// qualifying records. The record count is the planner's (req.RecordCount):
// asking every shard for its own would cost a round trip each.
func (s *store) EstimateCost(req core.CostRequest) core.CostEstimate {
	n := float64(req.RecordCount)
	fan := float64(len(s.shards))
	start, end, handled, point, depth := smutil.KeyRange(s.keyFields, req.Conjuncts, req.Scratch)
	est := core.CostEstimate{Usable: true, Start: start, End: end, Handled: handled,
		Ordered: s.keyFields != nil && smutil.OrderSatisfiedBy(s.keyFields, req.OrderBy)}
	switch {
	case point:
		est.IO = 4 // one round trip, one shard
		est.CPU = 1
		est.Selectivity = 1 / math.Max(n, 1)
	case depth > 0:
		frac := smutil.HandledSelectivity(req, handled)
		est.IO = (n*frac/float64(s.batch) + fan) * 4
		est.CPU = n * frac
		est.Selectivity = frac * smutil.ResidualSelectivity(req, handled)
	default:
		est.IO = (n/float64(s.batch) + fan) * 4
		est.CPU = n
		est.Selectivity = smutil.RequestSelectivity(req)
	}
	return est
}

// RecordCount implements core.StorageInstance: one round trip per shard.
func (s *store) RecordCount() int {
	total := 0
	for i := range s.shards {
		n, err := s.shards[i].client.Count(s.shards[i].table)
		if err != nil {
			return total
		}
		total += n
	}
	return total
}

// ApplyLogged implements core.StorageInstance. A live transaction's
// rollback stages compensating writes under its own id (last-op-wins
// staging makes the compensation net out the original), so the shard's
// committed state never sees the retracted effects at all. With no live
// session (restart recovery), the modification is applied directly to the
// committed shard state: redo rebuilds fresh shards from the log, undo
// retracts loser transactions — both idempotent, because 2PC resolution
// may already have committed or discarded the same effects shard-side
// (deletes tolerate absent keys, puts overwrite).
func (s *store) ApplyLogged(id wal.TxnID, payload []byte, undo bool) error {
	e, err := smutil.LoggedEffect(payload, undo)
	if err != nil {
		return err
	}
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess != nil && !undo {
		return fmt.Errorf("partsm: unexpected redo for live transaction %d", id)
	}
	if e.Del != nil {
		if sess != nil {
			err = s.stageDelete(uint64(id), sess, e.Del)
		} else {
			// A missing key is fine in both directions: the shard may
			// already reflect the retraction (the decision arrived before
			// the crash) or never received the staged write at all.
			sh := &s.shards[s.shardOf(e.Del)]
			sh.client.Delete(sh.table, e.Del)
		}
	}
	if e.Put != nil && err == nil {
		if sess != nil {
			err = s.stagePut(uint64(id), sess, e.Put, e.Rec)
		} else {
			sh := &s.shards[s.shardOf(e.Put)]
			_, err = sh.client.Put(sh.table, e.Put, e.Rec)
		}
	}
	return err
}

// ShardInfo describes one shard of a partitioned relation. It is a
// sys.stat_shards row; the tags name the columns. Messages is the owning
// server's total message counter (server-wide, not per-table: one server
// may host several shards or relations).
type ShardInfo struct {
	RelID    uint32 `json:"rel_id"`
	Name     string `json:"name"`
	Shard    int    `json:"shard"`
	Server   string `json:"server"`
	Table    string `json:"table_name"`
	Records  int    `json:"records"`
	InDoubt  int    `json:"in_doubt"` // prepared transactions on the shard awaiting a decision
	Messages int64  `json:"messages"`
}

// SysRows lists the relation's sys.stat_shards rows, one per shard.
func (s *store) SysRows() []ShardInfo {
	out := make([]ShardInfo, 0, len(s.shards))
	for i := range s.shards {
		info := ShardInfo{
			RelID:    s.rd.RelID,
			Name:     s.rd.Name,
			Shard:    i,
			Server:   s.shards[i].server,
			Table:    s.shards[i].table,
			Messages: s.shards[i].srv.Messages.Load(),
		}
		if n, err := s.shards[i].client.Count(s.shards[i].table); err == nil {
			info.Records = n
		}
		if ids, err := s.shards[i].client.InDoubt(); err == nil {
			info.InDoubt = len(ids)
		}
		out = append(out, info)
	}
	return out
}

var (
	_ core.StorageInstance               = (*store)(nil)
	_ io.Closer                          = (*store)(nil)
	_ interface{ SysRows() []ShardInfo } = (*store)(nil)
)

// Resolve drives every in-doubt shard transaction of every partitioned or
// remote relation to the coordinator's outcome: a commit record surviving
// in the local log (or an in-process decision whose delivery failed) means
// commit; no decision means abort — presumed abort, the coordinator never
// logged one. Registered as the storage method's AfterRecovery hook and
// callable directly to redeliver lost decisions without a restart.
func Resolve(env *core.Env) error {
	var committed map[wal.TxnID]bool
	for _, rd := range env.Cat.Relations() {
		if core.IsSystemRelID(rd.RelID) || (rd.SM != core.SMPart && rd.SM != core.SMRemote) {
			continue
		}
		if committed == nil {
			committed = make(map[wal.TxnID]bool)
			env.Log.Scan(0, func(rec wal.Record) bool {
				if rec.Kind == wal.RecCommit {
					committed[rec.Txn] = true
				}
				return true
			})
		}
		inst, err := env.StorageInstance(rd)
		if err != nil {
			return err
		}
		s, ok := inst.(*store)
		if !ok {
			continue
		}
		if err := s.resolve(committed); err != nil {
			return err
		}
	}
	return nil
}

// resolve decides every prepared transaction on every distinct server
// behind this relation. Decisions are per transaction, not per relation:
// a server transaction's staged writes may span several partitioned
// relations sharing the server, and the first resolver settles them all.
func (s *store) resolve(committed map[wal.TxnID]bool) error {
	s.mu.Lock()
	pending := make(map[uint64]bool, len(s.pending))
	for id, c := range s.pending {
		pending[id] = c
	}
	s.pending = make(map[uint64]bool)
	s.mu.Unlock()
	seen := make(map[*remote.Server]bool)
	for i := range s.shards {
		if seen[s.shards[i].srv] {
			continue
		}
		seen[s.shards[i].srv] = true
		if err := s.resolveShard(i, committed, pending); err != nil {
			return err
		}
	}
	return nil
}

// resolveShard decides every prepared transaction on shard i's server.
func (s *store) resolveShard(i int, committed map[wal.TxnID]bool, pending map[uint64]bool) error {
	ids, err := s.shards[i].client.InDoubt()
	if err != nil {
		return fmt.Errorf("partsm: shard %d in-doubt query: %w", i, err)
	}
	for _, id := range ids {
		if committed[wal.TxnID(id)] || pending[id] {
			err = s.shards[i].client.CommitTxn(id)
		} else {
			err = s.shards[i].client.AbortTxn(id)
		}
		if err != nil {
			return fmt.Errorf("partsm: resolve txn %d on shard %d: %w", id, i, err)
		}
		s.env.Obs.Part.Resolved.Add(1)
	}
	return nil
}

// scan merges per-shard batched cursors back into global key order. The
// embedded position is global: the last key returned, whichever shard
// owned it.
type scan struct {
	store   *store
	tx      uint64
	opts    core.ScanOptions
	q       smutil.Qualifier
	cursors []*cursor
	staged  uint64 // store.staged when the cursors last read ahead
	smutil.Position
}

// cursor is one shard's batched window into its key-ordered table.
type cursor struct {
	shard int
	after types.Key
	batch []remote.Entry
	done  bool
}

// Next implements core.Scan: refill any empty cursor, then pop the
// globally smallest head. Every refill is anchored strictly after the
// last key its cursor returned, so records inserted, changed or deleted
// between refills — the anchor itself included — are neither skipped nor
// repeated. A refill carries the scan's end, and a short batch means the
// shard has nothing left before it: that cursor is done. A write the
// transaction staged since the cursors read ahead may lie past the
// position, so the scan then refetches strictly after it.
func (sc *scan) Next() (types.Key, types.Record, bool, error) {
	if sc.Closed {
		return nil, nil, false, fmt.Errorf("partsm: scan is closed")
	}
	if n := sc.store.staged.Load(); n != sc.staged {
		sc.staged = n
		sc.rewind()
	}
	for {
		e, ok, err := sc.pop()
		if !ok || err != nil {
			return nil, nil, false, err
		}
		rec, ok, err := sc.q.Encoded(e.Rec)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return e.Key, rec, true, nil
		}
	}
}

// snapshot implements core.StorageOps.Snapshot: every committed record in
// global key order, as a scan outside any transaction merges the shards'
// batches, each entry handed out as the shard sent it.
func snapshot(inst core.StorageInstance, emit func(types.Key, []byte) error) error {
	s := inst.(*store)
	sc := &scan{store: s}
	for i := range s.shards {
		sc.cursors = append(sc.cursors, &cursor{shard: i})
	}
	for {
		e, ok, err := sc.pop()
		if !ok || err != nil {
			return err
		}
		if err := emit(e.Key, e.Rec); err != nil {
			return err
		}
	}
}

// pop removes and returns the globally smallest head, refilling any empty
// cursor first; ok is false once every cursor is done. The scan's
// position moves onto the entry.
func (sc *scan) pop() (remote.Entry, bool, error) {
	best := -1
	for ci, c := range sc.cursors {
		if len(c.batch) == 0 && !c.done {
			sh := &sc.store.shards[c.shard]
			entries, err := sh.client.ScanBatch(sc.tx, sh.table, c.after, sc.opts.End, sc.store.batch)
			if err != nil {
				return remote.Entry{}, false, err
			}
			c.batch, c.done = entries, len(entries) < sc.store.batch
		}
		if len(c.batch) == 0 {
			continue
		}
		if best < 0 || bytes.Compare(c.batch[0].Key, sc.cursors[best].batch[0].Key) < 0 {
			best = ci
		}
	}
	if best < 0 {
		return remote.Entry{}, false, nil
	}
	c := sc.cursors[best]
	e := c.batch[0]
	c.batch = c.batch[1:]
	c.after = e.Key
	sc.Started, sc.After = true, e.Key
	return e, true, nil
}

// Restore implements core.Scan: every cursor restarts strictly after the
// restored global position (keys at or before it were already returned on
// whichever shard owned them; shard data may have changed under partial
// rollback, so the batches are refetched).
func (sc *scan) Restore(pos core.ScanPos) error {
	if err := sc.Position.Restore(pos); err != nil {
		return err
	}
	sc.rewind()
	return nil
}

// rewind drops every cursor's read-ahead: each refetches strictly after
// the global position.
func (sc *scan) rewind() {
	for _, c := range sc.cursors {
		c.batch = nil
		c.done = false
		c.after = sc.After
	}
}
