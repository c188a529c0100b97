package dmx

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// mvccDB opens an in-memory database with one heap relation t(id, v), a
// hash access path on id, and n committed seed rows. It returns the
// relation handle and the seed record keys in insert order.
func mvccDB(t *testing.T, n int) (*DB, *Relation, []Key) {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := db.Env.CreateAttachment(tx, "t", "hash", core.AttrList{"name": "h", "on": "id"}); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 0, n)
	for i := 0; i < n; i++ {
		k, err := rel.Insert(tx, Record{Int(int64(i)), Str("seed")})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, rel, keys
}

func drainScan(t *testing.T, sc core.Scan) []Record {
	t.Helper()
	var out []Record
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// A read-only transaction reading a heap relation — fetch, full scan, and
// access-path lookup — must perform zero lock-manager acquisitions; that
// is the point of taking snapshot reads off the lock manager.
func TestReadOnlyZeroLockRequests(t *testing.T) {
	db, rel, keys := mvccDB(t, 8)

	ro := db.BeginReadOnly()
	before := db.Env.Obs.Lock.Requests.Load()
	if _, err := rel.Fetch(ro, keys[3], nil, nil); err != nil {
		t.Fatal(err)
	}
	sc, err := rel.OpenScan(ro, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainScan(t, sc); len(got) != 8 {
		t.Fatalf("scan returned %d records, want 8", len(got))
	}
	sc.Close()
	probe := types.Key(types.EncodeKeyValues(types.Int(3)))
	hits, err := rel.LookupAccess(ro, core.AttHash, 0, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hash lookup returned %d keys, want 1", len(hits))
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	after := db.Env.Obs.Lock.Requests.Load()
	if after != before {
		t.Fatalf("read-only transaction made %d lock requests, want 0", after-before)
	}
	if db.Env.Obs.MVCC.SnapshotReads.Load() == 0 {
		t.Fatal("snapshot-read counter did not move")
	}
}

// A snapshot that begins while an update is in flight keeps seeing the
// pre-update version — before the writer commits, after it commits, and
// through both fetch and scan. A snapshot begun after the commit sees the
// new version.
func TestSnapshotSeesPreUpdateState(t *testing.T) {
	db, rel, keys := mvccDB(t, 3)

	w := db.Begin()
	// "changed" is longer than "seed", so this update moves the record:
	// the old key dies and newKey is the record's address from now on.
	newKey, err := rel.Update(w, keys[1], Record{Int(1), Str("changed")})
	if err != nil {
		t.Fatal(err)
	}

	ro := db.BeginReadOnly()
	got, err := rel.Fetch(ro, keys[1], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].S != "seed" {
		t.Fatalf("snapshot sees in-flight update: %v", got)
	}

	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err = rel.Fetch(ro, keys[1], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].S != "seed" {
		t.Fatalf("snapshot sees committed-after-begin update: %v", got)
	}
	sc, err := rel.OpenScan(ro, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range drainScan(t, sc) {
		if rec[1].S != "seed" {
			t.Fatalf("snapshot scan sees later commit: %v", rec)
		}
	}
	sc.Close()
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}

	// A fresh snapshot sees the committed update at its new address; the
	// moved-from key is dead for it, exactly as for a locked reader.
	ro2 := db.BeginReadOnly()
	got, err = rel.Fetch(ro2, newKey, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].S != "changed" {
		t.Fatalf("fresh snapshot misses committed update: %v", got)
	}
	if _, err := rel.Fetch(ro2, keys[1], nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("fresh snapshot resurrects moved-from slot: %v", err)
	}
	ro2.Commit()
}

// An in-place update (same encoded length) keeps the record's key: the
// old snapshot reconstructs the old value at that key, a fresh one reads
// the new value at the same key.
func TestSnapshotSeesPreUpdateStateInPlace(t *testing.T) {
	db, rel, keys := mvccDB(t, 2)

	ro := db.BeginReadOnly()
	w := db.Begin()
	nk, err := rel.Update(w, keys[0], Record{Int(0), Str("sood")})
	if err != nil {
		t.Fatal(err)
	}
	if !nk.Equal(keys[0]) {
		t.Fatalf("same-length update moved the record: %v -> %v", keys[0], nk)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	got, err := rel.Fetch(ro, keys[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].S != "seed" {
		t.Fatalf("old snapshot sees in-place overwrite: %v", got)
	}
	ro.Commit()

	ro2 := db.BeginReadOnly()
	got, err = rel.Fetch(ro2, keys[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].S != "sood" {
		t.Fatalf("fresh snapshot misses in-place overwrite: %v", got)
	}
	ro2.Commit()
}

// A snapshot that predates a committed delete keeps the row; a snapshot
// after the delete gets not-found.
func TestSnapshotSeesPreDeleteState(t *testing.T) {
	db, rel, keys := mvccDB(t, 2)

	ro := db.BeginReadOnly()
	w := db.Begin()
	if err := rel.Delete(w, keys[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if _, err := rel.Fetch(ro, keys[0], nil, nil); err != nil {
		t.Fatalf("snapshot lost pre-delete row: %v", err)
	}
	ro.Commit()

	ro2 := db.BeginReadOnly()
	if _, err := rel.Fetch(ro2, keys[0], nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("fresh snapshot still sees deleted row: %v", err)
	}
	ro2.Commit()
}

// A snapshot scan held open across another transaction's commit must not
// observe the new state mid-scan: it returns exactly the rows committed
// when the snapshot began.
func TestSnapshotScanAcrossConcurrentCommit(t *testing.T) {
	db, rel, keys := mvccDB(t, 6)

	ro := db.BeginReadOnly()
	sc, err := rel.OpenScan(ro, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Read part of the scan before the writer commits.
	for i := 0; i < 2; i++ {
		_, rec, ok, err := sc.Next()
		if err != nil || !ok {
			t.Fatalf("scan prefix: %v %v", ok, err)
		}
		if rec[1].S != "seed" {
			t.Fatalf("scan prefix sees %v", rec)
		}
	}

	w := db.Begin()
	if _, err := rel.Insert(w, Record{Int(100), Str("late")}); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Update(w, keys[4], Record{Int(4), Str("late")}); err != nil {
		t.Fatal(err)
	}
	if err := rel.Delete(w, keys[5]); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	rest := drainScan(t, sc)
	sc.Close()
	if len(rest) != 4 {
		t.Fatalf("scan tail has %d records, want the 4 remaining seed rows: %v", len(rest), rest)
	}
	for _, rec := range rest {
		if rec[1].S != "seed" {
			t.Fatalf("snapshot scan observed concurrent commit mid-scan: %v", rec)
		}
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
}

// Ending a transaction with scans still open closes them exactly once:
// the end-of-transaction sweep must tolerate an explicit Close that
// already happened, and an explicit Close after the sweep must be a no-op
// rather than a double release.
func TestAbortWithOpenScansNoDoubleClose(t *testing.T) {
	db, rel, _ := mvccDB(t, 4)

	w := db.Begin()
	s1, err := rel.OpenScan(w, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rel.OpenScan(w, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s1.Next(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	// Both orders of explicit-close vs sweep must already be settled.
	if err := s1.Close(); err != nil {
		t.Fatalf("re-close after abort sweep: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close after abort sweep: %v", err)
	}

	ro := db.BeginReadOnly()
	s3, err := rel.OpenScan(ro, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s3.Next(); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s3.Close(); err != nil {
		t.Fatalf("close after read-only commit sweep: %v", err)
	}
}

// Read-only transactions refuse every modification with txn.ErrReadOnly.
func TestReadOnlyRejectsWrites(t *testing.T) {
	db, rel, keys := mvccDB(t, 1)

	ro := db.BeginReadOnly()
	if _, err := rel.Insert(ro, Record{Int(9), Str("x")}); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("insert: %v", err)
	}
	if _, err := rel.Update(ro, keys[0], Record{Int(0), Str("x")}); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("update: %v", err)
	}
	if err := rel.Delete(ro, keys[0]); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("delete: %v", err)
	}
	if _, err := ro.Savepoint("s"); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("savepoint: %v", err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A writing transaction reads its own uncommitted writes through the
// ordinary (locked, current-state) path.
func TestWriterReadsOwnUncommittedWrites(t *testing.T) {
	db, rel, keys := mvccDB(t, 2)

	w := db.Begin()
	nk, err := rel.Insert(w, Record{Int(50), Str("mine")})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rel.Fetch(w, nk, nil, nil); err != nil || got[1].S != "mine" {
		t.Fatalf("own insert readback: %v %v", got, err)
	}
	uk, err := rel.Update(w, keys[0], Record{Int(0), Str("mine2")})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rel.Fetch(w, uk, nil, nil); err != nil || got[1].S != "mine2" {
		t.Fatalf("own update readback: %v %v", got, err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
}

func versionChainLen(t *testing.T, rel *Relation, key Key) int {
	t.Helper()
	return rel.Storage().(interface{ VersionChainLen(types.Key) int }).VersionChainLen(key)
}

// A scan retires the version chains every open and future snapshot can
// see the head of — and only those. While snapshot S1 predates a commit,
// a later snapshot's scan must leave that commit's chain alone: S1 still
// needs it to read the old value by scan, by fetch and through an access
// path. Once S1 ends, the next scan drops the chain and the relation is
// back on the chainless fast path without a checkpoint.
func TestScanRetiresVersionChainsBelowTheSnapshotHorizon(t *testing.T) {
	db, rel, keys := mvccDB(t, 3)
	pruned := func() int64 { return db.Env.MetricsSnapshot().MVCC.Pruned }
	scan := func(tx *Txn) []Record {
		t.Helper()
		sc, err := rel.OpenScan(tx, core.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		return drainScan(t, sc)
	}

	// The seed load left one committed chain per record; the first scan
	// with no older snapshot open retires them all.
	if n := versionChainLen(t, rel, keys[0]); n != 1 {
		t.Fatalf("chain after load = %d, want 1", n)
	}
	s0 := db.BeginReadOnly()
	before := pruned()
	scan(s0)
	s0.Commit()
	for _, k := range keys {
		if n := versionChainLen(t, rel, k); n != 0 {
			t.Fatalf("chain at %v = %d after a quiescent scan, want 0", k, n)
		}
	}
	if got := pruned() - before; got != 3 {
		t.Fatalf("dmx_mvcc_pruned_total moved by %d, want 3", got)
	}

	s1 := db.BeginReadOnly()
	w := db.Begin()
	if _, err := rel.Update(w, keys[1], Record{Int(1), Str("edit")}); err != nil { // same length: in place
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := db.BeginReadOnly()
	for _, rec := range scan(s2) {
		if want := map[int64]string{0: "seed", 1: "edit", 2: "seed"}[rec[0].AsInt()]; rec[1].S != want {
			t.Fatalf("S2 scan sees %v, want %q", rec, want)
		}
	}
	if n := versionChainLen(t, rel, keys[1]); n != 1 {
		t.Fatalf("chain = %d after S2's scan while S1 is open, want 1 (S1 cannot see its head)", n)
	}
	for _, rec := range scan(s1) {
		if rec[1].S != "seed" {
			t.Fatalf("S1 scan sees a later commit: %v", rec)
		}
	}
	if got, err := rel.Fetch(s1, keys[1], nil, nil); err != nil || got[1].S != "seed" {
		t.Fatalf("S1 fetch: %v %v", got, err)
	}
	hits, err := rel.LookupAccess(s1, core.AttHash, 0, types.EncodeKeyValues(types.Int(1)))
	if err != nil || len(hits) != 1 {
		t.Fatalf("S1 hash lookup: %v %v", hits, err)
	}
	if got, err := rel.Fetch(s1, hits[0], nil, nil); err != nil || got[1].S != "seed" {
		t.Fatalf("S1 fetch through the hash access path: %v %v", got, err)
	}
	s1.Commit()

	// An uncommitted head is never retired, whatever the horizon.
	w2 := db.Begin()
	if _, err := rel.Update(w2, keys[2], Record{Int(2), Str("open")}); err != nil {
		t.Fatal(err)
	}
	before = pruned()
	scan(s2)
	if n := versionChainLen(t, rel, keys[1]); n != 0 {
		t.Fatalf("chain = %d after the first scan past S1's end, want 0", n)
	}
	if n := versionChainLen(t, rel, keys[2]); n != 1 {
		t.Fatalf("uncommitted chain = %d after the sweep, want 1", n)
	}
	if got := pruned() - before; got != 1 {
		t.Fatalf("dmx_mvcc_pruned_total moved by %d, want 1", got)
	}
	if got, err := rel.Fetch(s2, keys[2], nil, nil); err != nil || got[1].S != "seed" {
		t.Fatalf("S2 sees an uncommitted write: %v %v", got, err)
	}
	if err := w2.Abort(); err != nil {
		t.Fatal(err)
	}
	s2.Commit()
}

// A planned snapshot scan reads under the shared latch while a writer
// commits in-place updates and every new scan sweeps the chains: each
// snapshot still sees every row exactly once at one consistent value per
// commit (both halves of a two-row update, or neither).
func TestPlannedSnapshotScansAgainstWriterAndRetirement(t *testing.T) {
	db, rel, keys := mvccDB(t, 600) // rows on several pages
	bound, err := db.Plan(Query{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(bound.Explain(), "scan(") {
		t.Fatalf("plan is %q, want a storage-method scan", bound.Explain())
	}
	const rounds = 40
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= rounds; i++ {
			w := db.Begin()
			v := Str(fmt.Sprintf("%04d", i)) // as long as "seed": in place
			_, err := rel.Update(w, keys[0], Record{Int(0), v})
			if err == nil {
				_, err = rel.Update(w, keys[len(keys)-1], Record{Int(int64(len(keys) - 1)), v})
			}
			if err == nil {
				err = w.Commit()
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		ro := db.BeginReadOnly()
		rows, err := bound.Execute(ro)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]string{}
		for {
			rec, ok, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if _, dup := seen[rec[0].AsInt()]; dup {
				t.Fatalf("row %d returned twice", rec[0].AsInt())
			}
			seen[rec[0].AsInt()] = rec[1].S
		}
		rows.Close()
		ro.Commit()
		if len(seen) != len(keys) || seen[0] != seen[int64(len(keys)-1)] {
			t.Fatalf("snapshot saw %d rows, first %q last %q: want %d rows and one commit's pair",
				len(seen), seen[0], seen[int64(len(keys)-1)], len(keys))
		}
	}
	if n := versionChainLen(t, rel, keys[0]); n > 2 {
		t.Fatalf("chain = %d after %d commits with scans sweeping, want <= 2", n, rounds)
	}
}
