// Package remote implements the simulated foreign database the remote
// relation storage method speaks to.
//
// The paper's example storage method "support[s] access to a foreign
// database by simulating relation accesses via (remote) accesses to
// relations in the foreign database". The real 1987 substrate would be a
// network link to another DBMS; here the foreign database is an in-process
// Server reachable over a byte protocol on a net.Conn (tests use
// net.Pipe), with injectable per-message latency and message counters so
// experiments can expose the round-trip amplification of tuple-at-a-time
// access to remote data.
//
// Every message is one frame: a 4-byte big-endian payload length, then
// the payload. Each end reads its connection through one buffer, so a
// frame up to a full scan batch costs one read call. Integers in a payload
// are minimal uvarints; a byte field is a uvarint length and its bytes,
// and a zero-length field decodes as nil. A Request payload is the Op
// byte, TxnID, Limit, Table, Key, End and Rec. A Response payload is Err,
// Key, Rec, Count, then the number of Entries followed by each entry's Key
// and Rec, then the number of TxnIDs followed by each id. A frame that
// does not decode exactly, trailing bytes included, ends the connection.
package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmx/internal/btree"
	"dmx/internal/types"
)

// Op codes of the wire protocol.
type Op uint8

// Protocol operations.
const (
	OpPut    Op = iota + 1 // insert/overwrite a record at a key (key nil = assign)
	OpDelete               // remove the record at a key
	OpGet                  // fetch the record at a key
	OpScan                 // batch of records after a key
	OpCreate               // create a table
	OpDrop                 // drop a table
	OpCount                // record count

	// Transactional operations for partitioned relations. Writes staged
	// under a TxnID are buffered server-side, invisible to requests from
	// other transactions (Get/Scan overlay only their own TxnID's staged
	// writes), and reach the committed table state only at OpCommitTxn —
	// the shard-side half of the coordinator's two-phase commit.
	OpStagePut    // buffer a put under the request's TxnID
	OpStageDelete // buffer a delete (tombstone) under the request's TxnID
	OpPrepare     // phase one: promise the staged writes can commit
	OpCommitTxn   // phase two: apply the staged writes and forget the txn
	OpAbortTxn    // discard the staged writes and forget the txn
	OpInDoubt     // list prepared transaction ids awaiting a decision
	OpStageInsert // OpStagePut refused when the key is visible to the txn
)

func (op Op) String() string {
	switch op {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpGet:
		return "get"
	case OpScan:
		return "scan"
	case OpCreate:
		return "create"
	case OpDrop:
		return "drop"
	case OpCount:
		return "count"
	case OpStagePut:
		return "stageput"
	case OpStageDelete:
		return "stagedelete"
	case OpPrepare:
		return "prepare"
	case OpCommitTxn:
		return "committxn"
	case OpAbortTxn:
		return "aborttxn"
	case OpInDoubt:
		return "indoubt"
	case OpStageInsert:
		return "stageinsert"
	default:
		return fmt.Sprintf("op%d", uint8(op))
	}
}

// Request is one client → server message. TxnID scopes staged writes and
// read-your-writes visibility; zero means "no transaction" (committed
// state only), which is what the non-transactional ops use.
type Request struct {
	Op    Op
	Table string
	Key   []byte
	End   []byte // OpScan: exclusive upper bound (nil = none)
	Rec   []byte // encoded types.Record
	Limit int
	TxnID uint64
}

// Entry is one (key, record) pair in a scan response.
type Entry struct {
	Key []byte
	Rec []byte
}

// Response is one server → client message.
type Response struct {
	Err     string
	Key     []byte
	Rec     []byte
	Entries []Entry
	Count   int
	TxnIDs  []uint64 // OpInDoubt: prepared transactions awaiting a decision
}

// table is one foreign relation: its committed records in key order.
type table struct {
	mu      sync.Mutex
	recs    *btree.Tree
	nextSeq uint64
}

// stagedWrite is one buffered transactional write: a pending record value
// or (rec nil) a tombstone.
type stagedWrite struct {
	rec []byte
}

// serverTxn is the shard-side state of one distributed transaction: the
// staged writes per table (last write per key wins, so compensating
// stage ops net out) and whether phase one has promised the commit.
type serverTxn struct {
	writes   map[string]map[string]*stagedWrite // table -> key -> pending
	prepared bool
}

// FaultMode selects how an injected per-operation fault misbehaves.
type FaultMode int

const (
	// FaultReject refuses the request without executing it — the message
	// was "lost" on the way in.
	FaultReject FaultMode = iota + 1
	// FaultAckLoss executes the request but reports failure — the work
	// happened and the acknowledgement was lost on the way back.
	FaultAckLoss
)

// opFault is one armed per-operation fault with a remaining hit budget.
type opFault struct {
	mode  FaultMode
	count int
}

// Server is the foreign database engine.
type Server struct {
	mu     sync.Mutex
	tables map[string]*table

	txMu sync.Mutex
	txns map[uint64]*serverTxn

	faultMu sync.Mutex
	faults  map[Op]*opFault

	// Latency is the simulated one-way network + processing delay added to
	// every request.
	Latency time.Duration
	// Messages counts requests served.
	Messages atomic.Int64
	// Shipped counts the entries scan responses carried.
	Shipped atomic.Int64
	// Faulted counts requests that an injected fault made fail.
	Faulted atomic.Int64
	// Serving counts the Serve loops running now: the server's open
	// connections. A connection leak shows here, deterministically.
	Serving atomic.Int64
}

// NewServer returns an empty foreign database.
func NewServer(latency time.Duration) *Server {
	return &Server{
		tables:  make(map[string]*table),
		txns:    make(map[uint64]*serverTxn),
		faults:  make(map[Op]*opFault),
		Latency: latency,
	}
}

// InjectFault arms a fault on the next count requests with the given op:
// FaultReject drops them before execution, FaultAckLoss executes them but
// loses the acknowledgement. Tests use this to exercise the coordinator's
// in-doubt resolution paths.
func (s *Server) InjectFault(op Op, mode FaultMode, count int) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	s.faults[op] = &opFault{mode: mode, count: count}
}

// takeFault consumes one armed fault hit for op (0 when none armed).
func (s *Server) takeFault(op Op) FaultMode {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	f := s.faults[op]
	if f == nil || f.count <= 0 {
		return 0
	}
	f.count--
	if f.count == 0 {
		delete(s.faults, op)
	}
	s.Faulted.Add(1)
	return f.mode
}

// Serve handles requests on conn until it closes or sends a frame that
// does not decode, and closes conn when it returns, so the client's next
// call fails instead of blocking. Run it in a goroutine.
func (s *Server) Serve(conn net.Conn) {
	s.Serving.Add(1)
	defer s.Serving.Add(-1)
	defer conn.Close()
	// The read and write buffers are reused from request to request. That
	// is safe only because readFrame copies each payload out of r, and
	// nothing the server keeps aliases a request:
	// btree.Set copies key and record, stage copies the record and keys its
	// map by string, and a new table name is decoded into a new string.
	r := bufio.NewReaderSize(conn, readBufSize)
	var rbuf, wbuf []byte
	var req Request
	for {
		payload, err := readFrame(r, rbuf)
		if err != nil {
			return
		}
		rbuf = payload
		if decodeRequest(payload, &req) != nil {
			return
		}
		wbuf, err = closeFrame(appendResponse(openFrame(wbuf), s.handle(&req)))
		if err != nil { // the response is over the cap: send that error instead, which fits
			wbuf, _ = closeFrame(appendResponse(openFrame(wbuf), &Response{Err: err.Error()}))
		}
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

func (s *Server) table(name string) (*table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("remote: no such table %q", name)
	}
	return t, nil
}

// ErrFaulted is the error text injected faults report back to the client.
const ErrFaulted = "remote: injected fault"

// ErrDuplicateKey is the error StageInsert returns for a key the
// transaction already sees.
var ErrDuplicateKey = errors.New("remote: duplicate key")

// ErrKeyNotFound is the error Get returns for a key that holds no record
// the transaction sees.
var ErrKeyNotFound = errors.New("remote: key not found")

func (s *Server) handle(req *Request) *Response {
	s.Messages.Add(1)
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
	switch s.takeFault(req.Op) {
	case FaultReject:
		return &Response{Err: ErrFaulted}
	case FaultAckLoss:
		s.execute(req) // the work happens; the acknowledgement is lost
		return &Response{Err: ErrFaulted}
	}
	return s.execute(req)
}

func (s *Server) execute(req *Request) *Response {
	switch req.Op {
	case OpCreate:
		s.mu.Lock()
		if _, dup := s.tables[req.Table]; !dup {
			s.tables[req.Table] = &table{recs: btree.New(), nextSeq: 1}
		}
		s.mu.Unlock()
		return &Response{}
	case OpDrop:
		s.mu.Lock()
		delete(s.tables, req.Table)
		s.mu.Unlock()
		return &Response{}
	case OpStagePut, OpStageDelete, OpStageInsert:
		return s.stage(req)
	case OpPrepare:
		s.txMu.Lock()
		defer s.txMu.Unlock()
		// Preparing a transaction that staged nothing here is a trivial
		// yes-vote; it is not registered, so there is nothing to resolve.
		if tx := s.txns[req.TxnID]; tx != nil {
			tx.prepared = true
		}
		return &Response{}
	case OpCommitTxn:
		return s.commitTxn(req.TxnID)
	case OpAbortTxn:
		s.txMu.Lock()
		delete(s.txns, req.TxnID)
		s.txMu.Unlock()
		return &Response{}
	case OpInDoubt:
		s.txMu.Lock()
		var ids []uint64
		for id, tx := range s.txns {
			if tx.prepared {
				ids = append(ids, id)
			}
		}
		s.txMu.Unlock()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return &Response{TxnIDs: ids}
	}
	t, err := s.table(req.Table)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch req.Op {
	case OpPut:
		key := t.keyFor(req.Key)
		t.recs.Set(key, req.Rec)
		return &Response{Key: key}
	case OpDelete:
		if _, ok := t.recs.Delete(req.Key); !ok {
			return &Response{Err: ErrKeyNotFound.Error()}
		}
		return &Response{}
	case OpGet:
		if st := s.stagedFor(req.TxnID, req.Table, req.Key); st != nil {
			if st.rec == nil {
				return &Response{Err: ErrKeyNotFound.Error()}
			}
			return &Response{Rec: st.rec}
		}
		rec, ok := t.recs.Get(req.Key)
		if !ok {
			return &Response{Err: ErrKeyNotFound.Error()}
		}
		return &Response{Rec: rec}
	case OpScan:
		return s.scan(req, t)
	case OpCount:
		return &Response{Count: t.recs.Len()}
	default:
		return &Response{Err: fmt.Sprintf("remote: bad op %d", req.Op)}
	}
}

// keyFor returns the key a put lands on: the caller's, or (nil) the next
// 8-byte sequence key. Explicit sequence-shaped keys advance the sequence
// past themselves so replayed records never collide with assigned ones.
// t.mu must be held.
func (t *table) keyFor(key []byte) []byte {
	if key == nil {
		key = binary.BigEndian.AppendUint64(nil, t.nextSeq)
		t.nextSeq++
	} else if len(key) == 8 {
		if seq := binary.BigEndian.Uint64(key); seq >= t.nextSeq {
			t.nextSeq = seq + 1
		}
	}
	return key
}

// stage buffers one transactional write. The table must exist — staged
// writes target tables the storage method created beforehand. A staged
// put with a nil key is assigned its key now, so the client can log it;
// the sequence number is spent even if the transaction aborts. A staged
// insert is refused when its key holds a record the transaction sees: a
// committed one it has not tombstoned, or one it staged itself.
func (s *Server) stage(req *Request) *Response {
	if req.TxnID == 0 {
		return &Response{Err: "remote: staged write without a transaction id"}
	}
	t, err := s.table(req.Table)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	var committed bool
	switch {
	case req.Key == nil && req.Op != OpStagePut:
		return &Response{Err: fmt.Sprintf("remote: %v without a key", req.Op)}
	case req.Key == nil || req.Op == OpStageInsert:
		// Only assignment and the insert's probe need the table latch; any
		// other staged write must not queue behind a scan of the table.
		t.mu.Lock()
		if req.Key == nil {
			req.Key = t.keyFor(nil)
		} else {
			_, committed = t.recs.Get(req.Key)
		}
		t.mu.Unlock()
	}
	s.txMu.Lock()
	defer s.txMu.Unlock()
	tx := s.txns[req.TxnID]
	if req.Op == OpStageInsert {
		var own *stagedWrite
		if tx != nil {
			own = tx.writes[req.Table][string(req.Key)]
		}
		if own == nil && committed || own != nil && own.rec != nil {
			return &Response{Err: ErrDuplicateKey.Error()}
		}
	}
	if tx == nil {
		tx = &serverTxn{writes: make(map[string]map[string]*stagedWrite)}
		s.txns[req.TxnID] = tx
	}
	tw := tx.writes[req.Table]
	if tw == nil {
		tw = make(map[string]*stagedWrite)
		tx.writes[req.Table] = tw
	}
	if req.Op == OpStageDelete {
		tw[string(req.Key)] = &stagedWrite{} // tombstone
	} else {
		tw[string(req.Key)] = &stagedWrite{rec: append([]byte(nil), req.Rec...)}
	}
	return &Response{Key: req.Key}
}

// commitTxn applies a transaction's staged writes to committed state.
// Committing an unknown transaction is a no-op success: the decision may
// be redelivered after an acknowledgement was lost.
func (s *Server) commitTxn(txnID uint64) *Response {
	s.txMu.Lock()
	tx := s.txns[txnID]
	delete(s.txns, txnID)
	s.txMu.Unlock()
	if tx == nil {
		return &Response{}
	}
	names := make([]string, 0, len(tx.writes))
	for name := range tx.writes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t, err := s.table(name)
		if err != nil {
			continue // table dropped while the txn was in flight
		}
		t.mu.Lock()
		for key, st := range tx.writes[name] {
			if st.rec == nil {
				t.recs.Delete([]byte(key))
			} else {
				t.recs.Set([]byte(key), st.rec)
			}
		}
		t.mu.Unlock()
	}
	return &Response{}
}

// stagedFor returns the transaction's pending write for key (nil when the
// transaction has none) so reads observe their own staged effects.
func (s *Server) stagedFor(txnID uint64, tableName string, key []byte) *stagedWrite {
	if txnID == 0 {
		return nil
	}
	s.txMu.Lock()
	defer s.txMu.Unlock()
	if tx := s.txns[txnID]; tx != nil {
		return tx.writes[tableName][string(key)]
	}
	return nil
}

// scan returns up to Limit entries with keys strictly after req.Key and,
// when req.End is set, before it, in key order, overlaying the requesting
// transaction's staged writes onto committed state (staged puts appear,
// tombstones hide); t.mu is held. A batch comes back short only when
// nothing is left before End.
func (s *Server) scan(req *Request, t *table) *Response {
	limit := req.Limit
	if limit <= 0 {
		limit = 100
	}
	// Snapshot the transaction's staged keys in sorted order for a merge.
	var stagedKeys []string
	var staged map[string]*stagedWrite
	if req.TxnID != 0 {
		s.txMu.Lock()
		if tx := s.txns[req.TxnID]; tx != nil && tx.writes[req.Table] != nil {
			staged = make(map[string]*stagedWrite, len(tx.writes[req.Table]))
			for k, st := range tx.writes[req.Table] {
				staged[k] = st
				stagedKeys = append(stagedKeys, k)
			}
		}
		s.txMu.Unlock()
		sort.Strings(stagedKeys)
		if req.End != nil {
			stagedKeys = stagedKeys[:sort.SearchStrings(stagedKeys, string(req.End))]
		}
	}
	out := make([]Entry, 0, min(limit, t.recs.Len()+len(stagedKeys)))
	si := 0
	for req.Key != nil && si < len(stagedKeys) && stagedKeys[si] <= string(req.Key) {
		si++
	}
	// emitStaged appends staged key k's pending record (a tombstone hides
	// the committed one and appends nothing).
	emitStaged := func(k string) {
		if rec := staged[k].rec; rec != nil {
			out = append(out, Entry{Key: []byte(k), Rec: rec})
		}
	}
	t.recs.Ascend(req.Key, func(k, rec []byte) bool {
		if req.Key != nil && bytes.Equal(k, req.Key) {
			return true // the anchor itself is excluded
		}
		if req.End != nil && bytes.Compare(k, req.End) >= 0 {
			return false
		}
		for ; si < len(stagedKeys) && stagedKeys[si] < string(k); si++ {
			if len(out) == limit {
				return false
			}
			emitStaged(stagedKeys[si])
		}
		if len(out) == limit {
			return false
		}
		if _, pending := staged[string(k)]; pending {
			emitStaged(string(k))
			si++ // stagedKeys[si] is k
		} else {
			out = append(out, Entry{Key: k, Rec: rec})
		}
		return len(out) < limit
	})
	for ; si < len(stagedKeys) && len(out) < limit; si++ {
		emitStaged(stagedKeys[si])
	}
	s.Shipped.Add(int64(len(out)))
	return &Response{Entries: out}
}

// Client is the storage method's connection to the foreign database. It is
// safe for concurrent use (requests are serialised on the connection).
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	wbuf   []byte        // the request frame, reused from call to call
	served chan struct{} // closed when the Dial-started server goroutine exits
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, readBufSize)}
}

// Dial starts a server goroutine and returns a connected client — the
// in-process stand-in for dialing a foreign database.
func Dial(s *Server) *Client {
	c1, c2 := net.Pipe()
	c := NewClient(c1)
	c.served = make(chan struct{})
	go func() {
		defer close(c.served)
		s.Serve(c2)
	}()
	return c
}

// Close drops the connection and, for a Dial-made client, returns once
// the server goroutine behind it has exited.
func (c *Client) Close() error {
	err := c.conn.Close()
	if c.served != nil {
		<-c.served
	}
	return err
}

// Call performs one round trip. The response's byte fields alias a
// payload read for this call alone, so they stay valid after later calls.
func (c *Client) Call(req *Request) (*Response, error) {
	resp := new(Response)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendRequest(openFrame(c.wbuf), req)
	if err := c.roundTrip(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// put is Call for a request whose Rec is rec's encoding, appended straight
// into the frame; it returns the response's Key.
func (c *Client) put(req *Request, rec types.Record) (types.Key, error) {
	var resp Response
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendRecord(appendRequestHead(openFrame(c.wbuf), req), rec)
	if err := c.roundTrip(&resp); err != nil {
		return nil, err
	}
	return types.Key(resp.Key), nil
}

// roundTrip sends the request frame in c.wbuf and decodes the reply into
// resp; c.mu is held. A failed send or receive leaves the stream at an
// unknown offset, so it drops the connection: later calls fail at once
// rather than read a stray frame.
func (c *Client) roundTrip(resp *Response) error {
	frame, err := closeFrame(c.wbuf)
	if err != nil {
		return err
	}
	if _, err := c.conn.Write(frame); err != nil {
		c.conn.Close()
		return fmt.Errorf("remote: send: %w", err)
	}
	payload, err := readFrame(c.r, nil)
	if err == nil {
		err = decodeResponse(payload, resp)
	}
	if err != nil {
		c.conn.Close()
		return fmt.Errorf("remote: recv: %w", err)
	}
	if resp.Err != "" {
		return fmt.Errorf("%s", resp.Err)
	}
	return nil
}

// CreateTable creates a foreign table.
func (c *Client) CreateTable(name string) error {
	_, err := c.Call(&Request{Op: OpCreate, Table: name})
	return err
}

// DropTable drops a foreign table.
func (c *Client) DropTable(name string) error {
	_, err := c.Call(&Request{Op: OpDrop, Table: name})
	return err
}

// Put stores rec at key in committed state at once, outside any
// transaction (nil key lets the server assign one), and returns the
// record's key. Storage methods use it only to re-apply logged
// modifications at restart recovery; live writes are staged.
func (c *Client) Put(tableName string, key types.Key, rec types.Record) (types.Key, error) {
	return c.put(&Request{Op: OpPut, Table: tableName, Key: key}, rec)
}

// Delete removes the record at key from committed state at once (the
// recovery-time counterpart of Put).
func (c *Client) Delete(tableName string, key types.Key) error {
	_, err := c.Call(&Request{Op: OpDelete, Table: tableName, Key: key})
	return err
}

// Get fetches the record at key, overlaying txnID's staged writes
// (read-your-writes). txnID 0 sees committed state only. A key with no
// record fails with ErrKeyNotFound; any other error is the call's.
func (c *Client) Get(txnID uint64, tableName string, key types.Key) (types.Record, error) {
	resp, err := c.Call(&Request{Op: OpGet, TxnID: txnID, Table: tableName, Key: key})
	if err != nil && err.Error() == ErrKeyNotFound.Error() {
		return nil, ErrKeyNotFound
	}
	if err != nil {
		return nil, err
	}
	rec, _, err := types.DecodeRecord(resp.Rec)
	return rec, err
}

// ScanBatch returns up to limit records with keys strictly after
// afterKey and (end non-nil) before end, overlaying txnID's staged writes
// onto committed state. Fewer than limit records means none is left.
func (c *Client) ScanBatch(txnID uint64, tableName string, afterKey, end types.Key, limit int) ([]Entry, error) {
	resp, err := c.Call(&Request{Op: OpScan, TxnID: txnID, Table: tableName, Key: afterKey, End: end, Limit: limit})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Count returns the table's record count.
func (c *Client) Count(tableName string) (int, error) {
	resp, err := c.Call(&Request{Op: OpCount, Table: tableName})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// StagePut buffers a put under txnID (nil key lets the server assign one)
// and returns the record's key; the record becomes visible to other
// transactions only after CommitTxn.
func (c *Client) StagePut(txnID uint64, tableName string, key types.Key, rec types.Record) (types.Key, error) {
	return c.put(&Request{Op: OpStagePut, TxnID: txnID, Table: tableName, Key: key}, rec)
}

// StageInsert is StagePut for a key the transaction must not see yet: it
// fails with ErrDuplicateKey, staging nothing, when the key holds a
// committed record the transaction has not staged a delete of, or a record
// the transaction staged itself.
func (c *Client) StageInsert(txnID uint64, tableName string, key types.Key, rec types.Record) error {
	_, err := c.put(&Request{Op: OpStageInsert, TxnID: txnID, Table: tableName, Key: key}, rec)
	if err != nil && err.Error() == ErrDuplicateKey.Error() {
		return ErrDuplicateKey
	}
	return err
}

// StageDelete buffers a delete (tombstone) under txnID.
func (c *Client) StageDelete(txnID uint64, tableName string, key types.Key) error {
	_, err := c.Call(&Request{Op: OpStageDelete, TxnID: txnID, Table: tableName, Key: key})
	return err
}

// Prepare is phase one of two-phase commit: the server promises txnID's
// staged writes can commit and keeps them across coordinator restarts
// until it hears a decision.
func (c *Client) Prepare(txnID uint64) error {
	_, err := c.Call(&Request{Op: OpPrepare, TxnID: txnID})
	return err
}

// CommitTxn is phase two: apply txnID's staged writes to committed state.
// Unknown transaction ids succeed (decision redelivery is idempotent).
func (c *Client) CommitTxn(txnID uint64) error {
	_, err := c.Call(&Request{Op: OpCommitTxn, TxnID: txnID})
	return err
}

// AbortTxn discards txnID's staged writes. Idempotent like CommitTxn.
func (c *Client) AbortTxn(txnID uint64) error {
	_, err := c.Call(&Request{Op: OpAbortTxn, TxnID: txnID})
	return err
}

// InDoubt lists prepared transaction ids still awaiting a decision.
func (c *Client) InDoubt() ([]uint64, error) {
	resp, err := c.Call(&Request{Op: OpInDoubt})
	if err != nil {
		return nil, err
	}
	return resp.TxnIDs, nil
}
