package dmx

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/fault"
)

// crashState records what one workload run acknowledged before the
// injected crash, keyed by scenario name so Verify can check it after
// reopening from the same directory.
type crashState struct {
	dir      string
	ddlAcked int   // 0 none, 1 CREATE TABLE, 2 + CREATE INDEX
	acked    []int // ids whose INSERT statement returned success
	inFlight int   // id whose INSERT was running at the crash (0 none)
}

// crashPad makes heap pages fill quickly so buffer evictions (and with
// them the buffer.flush and pagefile.write crash sites) happen within a
// short workload.
var crashPad = strings.Repeat("x", 500)

const crashMaxRows = 400

// runCrashMatrix drives the fault-injection harness: per scenario it runs
// a fresh file-backed database until the armed crash site kills it (the
// database is deliberately not closed — the process died), then reopens
// from the surviving files, recovers, and asserts the durability
// contract: acknowledged work fully visible, unacknowledged work atomic.
// With checkpointAfter > 0 the workload takes a checkpoint right after
// that row is acknowledged. It returns the directory holding one
// subdirectory of database files per scenario.
func runCrashMatrix(t *testing.T, scenarios []fault.Scenario, checkpointEvery, checkpointAfter int) string {
	t.Helper()
	root := t.TempDir()
	states := make(map[string]*crashState, len(scenarios))

	h := &fault.Harness{
		Scenarios: scenarios,
		Workload: func(s fault.Scenario, inj *fault.Injector) error {
			st := &crashState{dir: filepath.Join(root, s.Name)}
			states[s.Name] = st
			return crashWorkload(st, inj, checkpointEvery, checkpointAfter, nil)
		},
		Verify: func(tb fault.TB, s fault.Scenario) {
			st := states[s.Name]
			db, err := Open(Config{
				LogPath:         filepath.Join(st.dir, "wal.log"),
				DiskPath:        filepath.Join(st.dir, "data.db"),
				PoolFrames:      4,
				CheckpointEvery: -1,
				Recover:         true,
			})
			if err != nil {
				tb.Errorf("%s: reopen: %v", s.Name, err)
				return
			}
			defer db.Close()

			res, err := db.Exec("SELECT id FROM t")
			if err != nil {
				// The table may be legitimately absent only when its CREATE
				// was never acknowledged.
				if st.ddlAcked == 0 {
					return
				}
				tb.Errorf("%s: table lost after acked CREATE: %v", s.Name, err)
				return
			}
			if st.ddlAcked == 0 && !s.ExpectDurable {
				tb.Errorf("%s: unacked CREATE TABLE survived recovery", s.Name)
				return
			}
			got := make(map[int]bool, len(res.Rows))
			for _, row := range res.Rows {
				got[int(row[0].AsInt())] = true
			}
			for _, id := range st.acked {
				if !got[id] {
					tb.Errorf("%s: acked row %d lost (recovered %d rows)", s.Name, id, len(got))
				}
			}
			for id := range got {
				if id <= len(st.acked) {
					continue
				}
				if s.ExpectDurable && id == st.inFlight {
					continue // durable but unacknowledged: allowed at this site
				}
				tb.Errorf("%s: unacked row %d visible after recovery", s.Name, id)
			}
			// The equality path exercises the B-tree access path, which
			// recovery rebuilt from the recovered relation contents.
			if st.ddlAcked == 2 {
				for _, id := range []int{1, len(st.acked)} {
					if id < 1 {
						continue
					}
					r, err := db.Exec(fmt.Sprintf("SELECT pad FROM t WHERE id = %d", id))
					if err != nil || len(r.Rows) != 1 {
						tb.Errorf("%s: index lookup id=%d: %d rows, %v", s.Name, id, len(r.Rows), err)
					}
				}
			}
		},
	}
	h.Run(t)
	return root
}

// crashWorkload runs a fresh file-backed database in st.dir: CREATE TABLE,
// CREATE INDEX, then up to crashMaxRows inserts, recording in st what was
// acknowledged, until a guarded operation fails. With checkpointAfter > 0
// it takes a checkpoint right after that row is acknowledged, then calls
// checkpointed, if set. It never closes the database: the injected crash
// is a process death, so the files keep whatever the engine managed to
// make durable.
func crashWorkload(st *crashState, inj *fault.Injector, checkpointEvery, checkpointAfter int, checkpointed func()) error {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	db, err := Open(Config{
		LogPath:         filepath.Join(st.dir, "wal.log"),
		DiskPath:        filepath.Join(st.dir, "data.db"),
		PoolFrames:      4, // force dirty-page evictions
		CheckpointEvery: checkpointEvery,
		Faults:          inj,
	})
	if err != nil {
		return err
	}
	if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, pad STRING) USING heap"); err != nil {
		return err
	}
	st.ddlAcked = 1
	if _, err := db.Exec("CREATE INDEX byid ON t (id)"); err != nil {
		return err
	}
	st.ddlAcked = 2
	for i := 1; i <= crashMaxRows; i++ {
		st.inFlight = i
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s')", i, crashPad)); err != nil {
			return err
		}
		st.inFlight = 0
		st.acked = append(st.acked, i)
		if i == checkpointAfter {
			if err := db.Checkpoint(); err != nil {
				return err
			}
			if checkpointed != nil {
				checkpointed()
			}
		}
	}
	return fmt.Errorf("workload finished without crashing")
}

// TestCrashMatrix sweeps every registered crash site (deep variants with
// DMX_CRASH_DEEP=1, as run by `make crash`).
func TestCrashMatrix(t *testing.T) {
	runCrashMatrix(t, fault.Matrix(os.Getenv("DMX_CRASH_DEEP") != ""), -1, 0)
}

// TestCrashMatrixWithCheckpoints repeats the sweep with aggressive
// checkpointing, so crashes land before, inside, and after checkpoint
// writes and recovery starts from a truncated log.
func TestCrashMatrixWithCheckpoints(t *testing.T) {
	runCrashMatrix(t, fault.Matrix(os.Getenv("DMX_CRASH_DEEP") != ""), 8, 0)
}

// TestCheckpointBoundsRedo asserts the point of checkpointing: restart
// redo work is bounded by the database size plus the checkpoint interval
// instead of the whole update history.
func TestCheckpointBoundsRedo(t *testing.T) {
	run := func(every int) (checkpoints, redo int64) {
		dir := t.TempDir()
		cfg := Config{LogPath: filepath.Join(dir, "wal.log"), CheckpointEvery: every}
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			t.Fatal(err)
		}
		// A small relation churned by a long update history: the snapshot
		// in each checkpoint stays 10 records, the history grows to 400.
		for i := 0; i < 10; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'v0')", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 400; i++ {
			if _, err := db.Exec(fmt.Sprintf("UPDATE t SET v = 'v%d' WHERE id = %d", i, i%10)); err != nil {
				t.Fatal(err)
			}
		}
		checkpoints = db.Env.Obs.WAL.Checkpoints.Load()
		// Crash (no Close): reopen and measure how much history redo replays.
		cfg.Recover = true
		cfg.CheckpointEvery = -1
		db2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		res, err := db2.Exec("SELECT v FROM t WHERE id = 9")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "v399" {
			t.Fatalf("recovered state wrong: %+v, %v", res, err)
		}
		return checkpoints, db2.Env.Obs.WAL.RedoRecords.Load()
	}

	ckpts, bounded := run(64)
	if ckpts == 0 {
		t.Fatal("no checkpoints taken with CheckpointEvery=64")
	}
	_, full := run(-1)
	if bounded*2 >= full {
		t.Fatalf("checkpointing did not bound redo: %d vs %d records", bounded, full)
	}
}

// TestCrashBetweenCommitForceAndStampPublication pins the commit-stamp
// recovery contract: the crash lands after the commit record's fsync but
// before the commit's stamp is published into the in-memory high-water.
// After restart the transaction must be fully in — redo replays it and
// the re-derived stamp high-water covers it — so locked reads and
// snapshot reads agree on the recovered row, never a half-published
// state where the row is present but invisible to snapshots.
func TestCrashBetweenCommitForceAndStampPublication(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New()
	cfg := Config{
		LogPath:         filepath.Join(dir, "wal.log"),
		DiskPath:        filepath.Join(dir, "data.db"),
		CheckpointEvery: -1,
		Faults:          inj,
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(
		"CREATE TABLE t (id INT NOT NULL, v STRING) USING heap",
		"INSERT INTO t VALUES (1, 'one')",
	); err != nil {
		t.Fatal(err)
	}
	inj.Arm(fault.SiteWALSynced, 1)
	if _, err := db.Exec("INSERT INTO t VALUES (2, 'two')"); err == nil {
		t.Fatal("commit survived the armed wal.synced crash")
	}
	// No db.Close(): the injected crash is a process death.

	cfg2 := cfg
	cfg2.Faults = nil
	cfg2.Recover = true
	db2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Exec("SELECT id FROM t")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("locked read after recovery: %+v, %v", res, err)
	}
	rel, err := db2.Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	ro := db2.BeginReadOnly()
	sc, err := rel.OpenScan(ro, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen[rec[0].AsInt()] = true
	}
	sc.Close()
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if !seen[1] || !seen[2] || len(seen) != 2 {
		t.Fatalf("snapshot read after recovery saw %v, want rows 1 and 2", seen)
	}
}

// TestCrashInCheckpointRewrite crashes inside and after the checkpoint's
// head rewrite, which writes the log from the checkpoint record into
// wal.log.ckpt, syncs it and renames it over wal.log: after a torn write
// of the new file, after its sync (before the rename), and after the
// rename, tearing the third commit forced into the new file. A probe run
// of the same workload, disarmed, finds the hit of each site: the rewrite
// is the checkpoint's last write and last sync. Every cell must recover
// every acknowledged row, with index lookups agreeing, and leave
// wal.log.ckpt behind exactly when the crash came before the rename.
func TestCrashInCheckpointRewrite(t *testing.T) {
	const after = 40
	probe := fault.New()
	var flush, synced int
	err := crashWorkload(&crashState{dir: filepath.Join(t.TempDir(), "probe")}, probe, -1, after, func() {
		flush, synced = probe.Hits(fault.SiteWALFlush), probe.Hits(fault.SiteWALSynced)
		probe.Arm(fault.SiteWALAppend, 1) // nothing after the checkpoint is needed
	})
	if flush == 0 || !probe.Crashed() {
		t.Fatalf("probe never checkpointed: %v", err)
	}
	cells := []struct {
		s       fault.Scenario
		renamed bool
	}{
		{fault.Scenario{Name: "rewrite-torn", Site: fault.SiteWALFlush, Nth: flush, Torn: true, Keep: 1000}, false},
		{fault.Scenario{Name: "rewrite-synced", Site: fault.SiteWALSynced, Nth: synced}, false},
		{fault.Scenario{Name: "after-rename", Site: fault.SiteWALFlush, Nth: flush + 3, Torn: true, Keep: 11}, true},
	}
	var scenarios []fault.Scenario
	for _, c := range cells {
		scenarios = append(scenarios, c.s)
	}
	root := runCrashMatrix(t, scenarios, -1, after)
	for _, c := range cells {
		_, err := os.Stat(filepath.Join(root, c.s.Name, "wal.log.ckpt"))
		if left := err == nil; left == c.renamed {
			t.Errorf("%s: wal.log.ckpt left behind %v, want %v", c.s.Name, left, !c.renamed)
		}
	}
}
