// Package wal implements the common recovery log of the data management
// extension architecture.
//
// All storage method and attachment extensions log their modifications
// here. The same log-based driver serves four duties the paper assigns to
// the common recovery facility: undoing the partial effects of a vetoed
// relation modification, partial transaction rollback to a savepoint,
// transaction abort, and system-restart recovery. The log does not
// interpret extension payloads; it dispatches undo and redo back to the
// owning extension, identified by an Owner tag on each update record.
//
// Durability: appended records are encoded once, into an in-memory window
// that is the image of the backing file (window.go), and reach the file
// when a force round writes them (force.go). A transaction is durable once
// the force covering its COMMIT record returns — the commit-durability
// contract internal/txn relies on. Checkpoints bound restart work: a
// completed checkpoint embeds a replayable snapshot of the engine state
// in the log, after which the log head before the checkpoint record is
// truncated and recovery redoes only records past it.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dmx/internal/fault"
	"dmx/internal/obs"
)

// LSN is a log sequence number. LSN 0 is "nil" (before every record).
// LSNs are stable across head truncation: record i of the in-memory
// window has LSN base+i+1.
type LSN uint64

// TxnID identifies a transaction in log records.
type TxnID uint64

// CheckpointTxn is the reserved transaction ID under which checkpoint
// snapshot records are logged. The transaction manager never allocates
// it, and recovery never rolls it back.
const CheckpointTxn = ^TxnID(0)

// RecKind classifies log records.
type RecKind uint8

// Log record kinds.
const (
	RecUpdate       RecKind = iota // extension modification; Payload is extension-owned
	RecCompensation                // CLR written while undoing an update
	RecCommit
	RecAbort
	RecSavepoint  // marks a partial-rollback point
	RecEnd        // transaction fully finished (after commit/abort processing)
	RecCheckpoint // checkpoint begin; Payload is the active-transaction table
)

// String returns the record kind name.
func (k RecKind) String() string {
	switch k {
	case RecUpdate:
		return "UPDATE"
	case RecCompensation:
		return "CLR"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecSavepoint:
		return "SAVEPOINT"
	case RecEnd:
		return "END"
	case RecCheckpoint:
		return "CHECKPOINT"
	default:
		return fmt.Sprintf("RecKind(%d)", uint8(k))
	}
}

// OwnerClass says which kind of extension owns an update record.
type OwnerClass uint8

// Owner classes.
const (
	OwnerSystem     OwnerClass = iota // catalog and other common-system updates
	OwnerStorage                      // a relation storage method
	OwnerAttachment                   // an attachment type
)

// Owner identifies the extension responsible for undoing/redoing a log
// record: the extension class, the small-integer extension ID used to index
// the procedure vectors, and the relation the modification applied to.
type Owner struct {
	Class OwnerClass
	ExtID uint8
	RelID uint32
}

// Record is one log record.
type Record struct {
	LSN      LSN
	Txn      TxnID
	PrevLSN  LSN // previous record of the same transaction (undo chain)
	UndoNext LSN // CLRs: next LSN of this txn still to be undone
	Kind     RecKind
	Owner    Owner
	Payload  []byte
}

// Undoer receives undo dispatches during rollback. Implementations route
// the call to the owning extension's undo entry point.
type Undoer interface {
	Undo(txn TxnID, owner Owner, payload []byte) error
}

// Redoer receives redo dispatches during restart recovery. compensation is
// true for CLRs, whose redo applies the *inverse* of the logged
// modification (history is repeated, including the undo work).
type Redoer interface {
	Redo(txn TxnID, owner Owner, payload []byte, compensation bool) error
}

// ATTEntry is one active-transaction-table entry in a checkpoint record.
type ATTEntry struct {
	Txn     TxnID
	LastLSN LSN
}

// Log is the common write-ahead log. It keeps the records since the last
// checkpoint in memory and optionally mirrors them to a file for restart
// recovery. A Log is safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	base      LSN       // highest LSN truncated from the head
	next      LSN       // LSN the next append gets
	segs      []segment // the window: records base+1..next-1, as the frames the file holds
	lastLSN   map[TxnID]LSN
	ckptOpen  LSN // newest RecCheckpoint still waiting for its END
	ckptDone  LSN // newest RecCheckpoint closed by its END (0 if none)
	sinceCkpt int // records appended since the last completed checkpoint
	obs       *obs.WALStats
	faults    *fault.Injector

	// The backing file. Frames through durable occupy [0, goodEnd); the
	// file is zero-filled from there to allocated. The fields change only
	// in a force round or with none in flight.
	path        string // checkpoint truncation rewrites the file here
	file        logFile
	goodEnd     int64
	allocated   int64
	dirUnsynced bool // the rename of a rewrite is not yet durable (syncDir)

	// Forces. durable is the highest LSN known to be on stable storage;
	// forcing marks the one round in flight; synced is broadcast when it
	// ends.
	durable LSN
	forcing bool
	synced  *sync.Cond
	cut     [][]byte // the round's slices of the window, reused
}

// logFile is what the log needs of its backing file: positioned writes, a
// force, and trimming. Tests substitute files that block or fail.
type logFile interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// New returns an in-memory log (no persistence).
func New() *Log {
	l := &Log{next: 1, lastLSN: make(map[TxnID]LSN), obs: &obs.WALStats{}}
	l.synced = sync.NewCond(&l.mu)
	return l
}

// SetObs points the log's instrumentation at a shared metric registry.
// Call at assembly, before traffic.
func (l *Log) SetObs(ws *obs.WALStats) {
	if ws == nil {
		return
	}
	l.mu.Lock()
	l.obs = ws
	l.mu.Unlock()
}

// SetFaults arms the log's crash sites with a fault injector (testing).
// Call at assembly, before traffic.
func (l *Log) SetFaults(in *fault.Injector) {
	l.mu.Lock()
	l.faults = in
	l.mu.Unlock()
}

// Open returns a log mirrored to the file at path, first loading any
// records already present (e.g. after a crash). Whatever follows the last
// whole record — a torn final write, the zero fill of a preallocated
// extent — is trimmed away.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := New()
	data, err := io.ReadAll(f)
	if err == nil {
		l.goodEnd = l.load(data)
		err = f.Truncate(l.goodEnd)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: load %s: %w", path, err)
	}
	l.path, l.file, l.allocated = path, f, l.goodEnd
	// Everything loaded survived the crash on stable storage.
	l.durable = l.next - 1
	return l, nil
}

// Append writes a record for txn owned by owner and returns its LSN.
// Payload is copied. The record is buffered: it reaches stable storage
// with the next force.
func (l *Log) Append(txn TxnID, kind RecKind, owner Owner, payload []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(txn, kind, owner, payload, 0)
}

// AppendCLR writes a compensation record whose UndoNext points at the next
// record of the transaction still requiring undo.
func (l *Log) AppendCLR(txn TxnID, owner Owner, payload []byte, undoNext LSN) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(txn, RecCompensation, owner, payload, undoNext)
}

func (l *Log) appendLocked(txn TxnID, kind RecKind, owner Owner, payload []byte, undoNext LSN) (LSN, error) {
	if err := l.faults.Hit(fault.SiteWALAppend); err != nil {
		return 0, err
	}
	rec := Record{LSN: l.next, Txn: txn, PrevLSN: l.lastLSN[txn], UndoNext: undoNext, Kind: kind, Owner: owner, Payload: payload}
	// Only a frame that can reach a file needs its checksum.
	putFrame(l.reserve(frameSize(len(payload))), rec, l.file != nil)
	l.track(rec)
	l.sinceCkpt++
	l.obs.Appends.Inc()
	l.obs.AppendBytes.Add(int64(len(payload)))
	return rec.LSN, nil
}

// track folds one more record into the per-transaction chain heads and
// the last-complete-checkpoint pointer.
func (l *Log) track(rec Record) {
	if rec.Kind != RecEnd {
		l.lastLSN[rec.Txn] = rec.LSN
		if rec.Kind == RecCheckpoint {
			l.ckptOpen = rec.LSN
		}
		return
	}
	delete(l.lastLSN, rec.Txn)
	if rec.Txn == CheckpointTxn && l.ckptOpen != 0 {
		l.ckptDone, l.ckptOpen = l.ckptOpen, 0
	}
}

// LastLSN returns the most recent LSN written for txn (0 if none).
func (l *Log) LastLSN(txn TxnID) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN[txn]
}

// Len returns the number of records in the in-memory window.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.next - 1 - l.base)
}

// Base returns the truncation offset: the highest LSN dropped from the
// head (0 when the log is complete from LSN 1).
func (l *Log) Base() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// AppendsSinceCheckpoint returns the number of records appended since the
// last completed checkpoint (or since open).
func (l *Log) AppendsSinceCheckpoint() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

// At returns the record with the given LSN. Records before the truncated
// head are gone and report false. The payload aliases the window: it
// stays valid and unchanged for as long as the caller holds it, and must
// not be written to.
func (l *Log) At(lsn LSN) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.atLocked(lsn)
}

// Scan calls fn with each record from LSN from (or the head of the window,
// if that is later) through the last one appended before the call, in LSN
// order, until fn returns false. fn runs without the log's lock and may
// use the log; payloads alias the window under At's rule.
func (l *Log) Scan(from LSN, fn func(Record) bool) {
	l.mu.Lock()
	chunks := l.chunksLocked(nil, from)
	l.mu.Unlock()
	for _, frames := range chunks {
		for len(frames) > 0 {
			n := frameHeader + int(binary.BigEndian.Uint32(frames))
			if !fn(decodeRecord(frames[frameHeader:n])) {
				return
			}
			frames = frames[n:]
		}
	}
}

// Records returns the window as a slice (tests; the engine scans).
func (l *Log) Records() []Record {
	var out []Record
	l.Scan(0, func(rec Record) bool { out = append(out, rec); return true })
	return out
}

// Rollback undoes txn's update records back to (but not including) toLSN,
// dispatching each undo to d and writing a CLR per undone record. With
// toLSN 0 it rolls back the whole transaction. CLRs already in the chain
// are skipped via their UndoNext pointers, so a rollback that itself
// crashed mid-way is never undone twice.
//
// The undo chain is collected under a single lock acquisition, so
// concurrent appenders (other transactions) cannot interleave with the
// chain walk. Only the owning goroutine appends records for txn, which
// keeps the snapshot exact.
func (l *Log) Rollback(txn TxnID, toLSN LSN, d Undoer) error {
	l.obs.Rollbacks.Inc()
	l.mu.Lock()
	var chain []Record
	var err error
	for cur := l.lastLSN[txn]; cur > toLSN && err == nil; {
		rec, ok := l.atLocked(cur)
		switch {
		case !ok:
			err = fmt.Errorf("wal: broken undo chain: txn %d lsn %d", txn, cur)
		case rec.Txn != txn:
			err = fmt.Errorf("wal: undo chain crossed transactions at lsn %d", cur)
		case rec.Kind == RecCompensation:
			cur = rec.UndoNext
		default: // savepoints and commit markers have nothing to undo
			if rec.Kind == RecUpdate {
				chain = append(chain, rec)
			}
			cur = rec.PrevLSN
		}
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for _, rec := range chain {
		if err := d.Undo(txn, rec.Owner, rec.Payload); err != nil {
			return fmt.Errorf("wal: undo dispatch lsn %d: %w", rec.LSN, err)
		}
		if _, err := l.AppendCLR(txn, rec.Owner, rec.Payload, rec.PrevLSN); err != nil {
			return err
		}
	}
	return nil
}

// ActiveTxns returns the transactions with log records but no END record —
// the "loser" set at restart.
func (l *Log) ActiveTxns() []TxnID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TxnID, 0, len(l.lastLSN))
	for t := range l.lastLSN {
		out = append(out, t)
	}
	return out
}

// Checkpoint writes a checkpoint: a RecCheckpoint record carrying the
// active-transaction table, the snapshot records the snap callback emits
// (logged under CheckpointTxn), and the closing END record; the whole
// chain is then made durable and the log head before the checkpoint
// record is truncated, in memory and in the backing file
// (closeCheckpointLocked).
//
// The caller must quiesce writers first (the engine holds every
// relation's S lock across the callback), so the snapshot is the only
// update activity between the checkpoint record and its END.
// The checkpoint record also carries the commit-stamp high-water
// (stampHW) as a trailing field, so restart recovery can re-seed the
// stamp sequence even after the commit records below the checkpoint have
// been truncated away.
func (l *Log) Checkpoint(att []TxnID, stampHW uint64, snap func(emit func(owner Owner, payload []byte) error) error) error {
	l.mu.Lock()
	entries := make([]ATTEntry, 0, len(att))
	for _, t := range att {
		entries = append(entries, ATTEntry{Txn: t, LastLSN: l.lastLSN[t]})
	}
	payload := binary.BigEndian.AppendUint64(EncodeATT(entries), stampHW)
	ckptLSN, err := l.appendLocked(CheckpointTxn, RecCheckpoint, Owner{}, payload, 0)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if snap != nil {
		emit := func(owner Owner, payload []byte) error {
			_, err := l.Append(CheckpointTxn, RecUpdate, owner, payload)
			return err
		}
		if err := snap(emit); err != nil {
			return fmt.Errorf("wal: checkpoint snapshot: %w", err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	end, err := l.appendLocked(CheckpointTxn, RecEnd, Owner{}, nil, 0)
	if err != nil {
		return err
	}
	if err := l.closeCheckpointLocked(ckptLSN, end); err != nil {
		return err
	}
	l.sinceCkpt = 0
	l.obs.Checkpoints.Inc()
	return nil
}

// closeCheckpointLocked makes the checkpoint whose record is keep and
// whose END is end durable, then drops every record before keep from the
// window: whole segments, the one holding keep stays entire, its head out
// of reach. A file-backed log with a head to drop is rewritten to start
// at keep, so the snapshot reaches the disk once: one force round, run
// like forceLocked's with l.mu released so appenders go on, writes the
// window from keep into path.ckpt, syncs it, renames it over the log and
// syncs the directory (writeRewrite). Once renamed, the new file is the
// log's, durable through the last record the round cut; a record appended
// meanwhile reaches it with the next round. An in-memory log, one with
// nothing to drop, or one whose rewrite failed before its rename forces
// END into the current file instead; after a failed rewrite the full log
// stays on disk, and recovery still starts at the checkpoint. Crashing
// before END is durable leaves an incomplete checkpoint that recovery
// ignores in favour of the previous one. l.mu is held on entry and on
// return.
func (l *Log) closeCheckpointLocked(keep, end LSN) error {
	drop := keep > l.base+1
	renamed := false
	if drop && l.file != nil {
		l.idleLocked()
		l.forcing = true
		target := l.next - 1
		l.cut = l.chunksLocked(l.cut[:0], keep)
		l.mu.Unlock()
		f, n, err := l.writeRewrite()
		l.mu.Lock()
		l.forcing = false
		l.synced.Broadcast()
		if renamed = err == nil; renamed {
			l.file.Close() // renamed over: nothing reads or writes it again
			l.file, l.goodEnd, l.allocated, l.durable = f, n, n, target
		}
	}
	if !renamed {
		if err := l.forceLocked(end, nil); err != nil {
			return err
		}
	}
	if drop {
		l.segs = append([]segment(nil), l.segs[l.segIndex(keep):]...)
		l.base = keep - 1
	}
	return nil
}

// writeRewrite is closeCheckpointLocked's round without l.mu: it writes
// l.cut into path.ckpt through the same crash sites as a force round,
// renames it over the log and syncs the directory, returning the new file
// and its size. A failure before the rename removes path.ckpt, unless the
// injected crash killed the process, which removes nothing.
func (l *Log) writeRewrite() (logFile, int64, error) {
	tmp := l.path + ".ckpt"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	n, err := l.writeCut(f, 0, false)
	if err == nil {
		err = l.faults.Hit(fault.SiteWALSynced)
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		if !l.faults.Crashed() {
			os.Remove(tmp)
		}
		return nil, 0, err
	}
	// Later commits are forced into the new file, so its name must be
	// durable before any of them is acknowledged; a failed directory sync
	// is retried by the next round, which fails until it succeeds.
	l.dirUnsynced = true
	_ = l.syncDir()
	return f, n, nil
}

// syncDir makes a rename over the log durable by syncing its directory,
// if one is pending. It runs in the one round in flight.
func (l *Log) syncDir() error {
	if !l.dirUnsynced {
		return nil
	}
	d, err := os.Open(filepath.Dir(l.path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: sync directory: %w", err)
	}
	l.dirUnsynced = false
	return nil
}

// CheckpointLSN returns the LSN of the last complete checkpoint in the
// log — the newest RecCheckpoint followed by its closing END (0 if none).
func (l *Log) CheckpointLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptDone
}

// Recover performs restart recovery: redo every update and compensation
// record past the last complete checkpoint in LSN order (repeating
// history — the checkpoint snapshot replays first, being the oldest
// surviving records), then roll back every transaction that has no COMMIT
// record, writing abort/end markers, and force the markers to stable
// storage so a crash during recovery never repeats completed rollbacks.
// Committed-but-unended transactions are simply marked ended. The
// snapshot records of an incomplete checkpoint replay harmlessly (they
// re-place values the surrounding records already produced) and its open
// CheckpointTxn chain is closed without undo.
func (l *Log) Recover(r Redoer, u Undoer) error {
	committed := map[TxnID]bool{}
	ckptLSN := l.CheckpointLSN() // records up to it are superseded by its snapshot
	var err error
	l.Scan(0, func(rec Record) bool {
		switch {
		case rec.Kind == RecCommit:
			committed[rec.Txn] = true
		case rec.LSN > ckptLSN && (rec.Kind == RecUpdate || rec.Kind == RecCompensation):
			l.obs.RedoRecords.Inc()
			if rerr := r.Redo(rec.Txn, rec.Owner, rec.Payload, rec.Kind == RecCompensation); rerr != nil {
				err = fmt.Errorf("wal: redo lsn %d: %w", rec.LSN, rerr)
			}
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	for _, txn := range l.ActiveTxns() {
		if txn == CheckpointTxn || committed[txn] {
			// An incomplete checkpoint's snapshot chain is closed, not
			// undone: its records are re-placements of committed state.
			if _, err := l.Append(txn, RecEnd, Owner{}, nil); err != nil {
				return err
			}
			continue
		}
		if err := l.Rollback(txn, 0, u); err != nil {
			return err
		}
		if _, err := l.Append(txn, RecAbort, Owner{}, nil); err != nil {
			return err
		}
		if _, err := l.Append(txn, RecEnd, Owner{}, nil); err != nil {
			return err
		}
	}
	// The abort/end markers must be durable: losing them would repeat the
	// loser rollbacks (harmless) but could resurrect a rolled-back chain
	// after a later checkpoint truncated the evidence.
	return l.Sync()
}

// EncodeATT serialises an active-transaction table.
func EncodeATT(entries []ATTEntry) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		out = binary.BigEndian.AppendUint64(out, uint64(e.Txn))
		out = binary.BigEndian.AppendUint64(out, uint64(e.LastLSN))
	}
	return out
}

// EncodeCommitStamp serialises a commit stamp for a RecCommit payload.
func EncodeCommitStamp(stamp uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, stamp)
}

// DecodeCommitStamp reads the stamp from a RecCommit payload; commit
// records written before stamp tracking carry no payload and yield 0.
func DecodeCommitStamp(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// DecodeCheckpointStamp reads the commit-stamp high-water trailing a
// RecCheckpoint payload (0 for records written before stamp tracking, or
// whose ATT is malformed).
func DecodeCheckpointStamp(b []byte) uint64 {
	if len(b) < 4 {
		return 0
	}
	n := int(binary.BigEndian.Uint32(b))
	off := 4 + 16*n
	if off < 0 || len(b) < off+8 {
		return 0
	}
	return binary.BigEndian.Uint64(b[off:])
}
