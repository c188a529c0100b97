package dmx

// Multi-worker stress harness: concurrent sessions run a mixed
// insert/update/delete/point-query workload over heap and memory relations
// carrying an index, a uniqueness constraint, referential integrity, and a
// materialised aggregate, while a checkpointer runs alongside. Between
// rounds the database is abandoned without Close (simulated crash) and
// reopened with log recovery. The harness then asserts the durability and
// integrity contract: exactly the committed rows survive, every child row
// has its parent, the index agrees with the base relation, eno values stay
// unique, and the materialised aggregate matches a from-scratch scan.
//
// The default shape is sized for `go test ./...`; set DMX_STRESS_DEEP=1
// for the larger soak used by `make race`.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dmx/internal/att/aggmv"
	"dmx/internal/core"
	"dmx/internal/lock"
)

const (
	stressDepts     = 4
	stressSharedEno = 8 // enos 1..8 are contended by every worker
)

type stressRow struct {
	name   string
	dno    int
	salary int
}

// stressModel is the acknowledged committed state: per-worker disjoint eno
// ranges plus the shared contended range (whose salaries are not modelled —
// concurrent winners are nondeterministic — only their existence).
type stressModel struct {
	mu     sync.Mutex
	rows   map[int]stressRow // committed rows in worker-private ranges
	shared map[int]bool      // contended rows: existence only
}

func (m *stressModel) commit(pend map[int]*stressRow) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for eno, r := range pend {
		if r == nil {
			delete(m.rows, eno)
		} else {
			m.rows[eno] = *r
		}
	}
}

func stressWorkerBase(w int) int { return (w + 1) * 10000 }

func TestStressConcurrentWorkload(t *testing.T) {
	workers, ops, rounds := 4, 120, 2
	if os.Getenv("DMX_STRESS_DEEP") != "" {
		workers, ops, rounds = 8, 400, 3
	}
	runStress(t, workers, ops, rounds)
}

func runStress(t *testing.T, workers, ops, rounds int) {
	dir := t.TempDir()
	cfg := Config{
		LogPath:         filepath.Join(dir, "wal.log"),
		DiskPath:        filepath.Join(dir, "data.db"),
		PoolFrames:      32, // small pool: dirty evictions exercise WAL-before-data
		CheckpointEvery: 400,
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"CREATE TABLE dept (dno INT NOT NULL, dname STRING) USING memory",
		"CREATE TABLE emp (eno INT NOT NULL, name STRING, dno INT NOT NULL, salary INT) USING heap",
		"CREATE INDEX empbyeno ON emp (eno)",
		"CREATE ATTACHMENT unique ON emp WITH (on=eno)",
		"CREATE ATTACHMENT refint ON emp WITH (name=empdept, role=child, on=dno, peer=dept, peerkey=dno)",
		"CREATE ATTACHMENT aggregate ON emp WITH (name=salsum, group=dno, value=salary)",
	}
	if _, err := db.Exec(stmts...); err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= stressDepts; d++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO dept VALUES (%d, 'dept%d')", d, d)); err != nil {
			t.Fatal(err)
		}
	}
	model := &stressModel{rows: make(map[int]stressRow), shared: make(map[int]bool)}
	for eno := 1; eno <= stressSharedEno; eno++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO emp VALUES (%d, 'shared%d', %d, 100)",
			eno, eno, 1+eno%stressDepts)); err != nil {
			t.Fatal(err)
		}
		model.shared[eno] = true
	}

	for round := 0; round < rounds; round++ {
		stressStorm(t, db, model, workers, ops, round)
		// Group commit must have engaged while the workers were committing
		// concurrently (checked before the counters die with the handles).
		if snap := db.Env.Obs.Snapshot(); snap.WAL.GroupCommits == 0 {
			t.Fatalf("round %d: no group commits recorded", round)
		}
		// Simulated crash: abandon the handles without Close — the files
		// keep whatever the engine made durable — then recover.
		db, err = Open(Config{
			LogPath:         cfg.LogPath,
			DiskPath:        cfg.DiskPath,
			PoolFrames:      cfg.PoolFrames,
			CheckpointEvery: cfg.CheckpointEvery,
			Recover:         true,
		})
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		stressVerify(t, db, model, round)
	}
	// Clean shutdown and one final recovery-free check path.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Config{
		LogPath:  cfg.LogPath,
		DiskPath: cfg.DiskPath,
		Recover:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stressVerify(t, db, model, rounds)
}

// stressStorm runs the concurrent mixed workload for one round.
func stressStorm(t *testing.T, db *DB, model *stressModel, workers, ops, round int) {
	t.Helper()
	stop := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				if err := db.Checkpoint(); err != nil && !errors.Is(err, core.ErrCheckpointBusy) {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stressWorker(t, db, model, w, ops, round)
		}(w)
	}
	wg.Wait()
	close(stop)
	ckptWG.Wait()
}

// stressWorker drives one session: private-range inserts, updates, deletes
// and point reads, deliberate rollbacks, and lock-order-inverted updates on
// the shared range that legitimately deadlock (victim rolls back).
func stressWorker(t *testing.T, db *DB, model *stressModel, w, ops, round int) {
	rng := rand.New(rand.NewSource(int64(round*1000 + w)))
	s := db.NewSession()
	base := stressWorkerBase(w)
	next := base + round*1000 // fresh eno space each round
	// exec runs one autocommit statement. A deadlock victim is a clean
	// failure — the engine aborted the transaction — reported as ok=false;
	// any other error is fatal for the harness. Multi-resource writes
	// (row + index + unique + refint parent + aggregate group) legitimately
	// deadlock under this mix.
	exec := func(stmt string) (ok bool) {
		t.Helper()
		if _, err := s.Exec(stmt); err != nil {
			if errors.Is(err, lock.ErrDeadlock) {
				return false
			}
			t.Errorf("w%d: %q: %v", w, stmt, err)
			return false
		}
		return true
	}
	for i := 0; i < ops && !t.Failed(); i++ {
		switch k := rng.Intn(10); {
		case k < 4: // autocommit insert in the private range
			eno := next
			next++
			r := stressRow{name: fmt.Sprintf("w%d-%d", w, eno), dno: 1 + rng.Intn(stressDepts), salary: 50 + rng.Intn(200)}
			if exec(fmt.Sprintf("INSERT INTO emp VALUES (%d, '%s', %d, %d)", eno, r.name, r.dno, r.salary)) {
				model.commit(map[int]*stressRow{eno: &r})
			}
		case k < 6: // update or delete a previously committed private row
			model.mu.Lock()
			var eno int
			var row stressRow
			for e, r := range model.rows {
				if e >= base && e < base+10000 {
					eno, row = e, r
					break
				}
			}
			model.mu.Unlock()
			if eno == 0 {
				continue
			}
			if rng.Intn(3) == 0 {
				if exec(fmt.Sprintf("DELETE FROM emp WHERE eno = %d", eno)) {
					model.commit(map[int]*stressRow{eno: nil})
				}
			} else {
				row.salary = 50 + rng.Intn(500)
				row.dno = 1 + rng.Intn(stressDepts)
				if exec(fmt.Sprintf("UPDATE emp SET salary = %d, dno = %d WHERE eno = %d", row.salary, row.dno, eno)) {
					model.commit(map[int]*stressRow{eno: &row})
				}
			}
		case k < 7: // deliberate rollback: the insert must never surface
			eno := 900000 + w*1000 + i
			stressTxn(t, s, w, []string{fmt.Sprintf("INSERT INTO emp VALUES (%d, 'ghost', 1, 1)", eno)}, true)
		case k < 9: // contended multi-row txn in shuffled order: may deadlock
			a, b := 1+rng.Intn(stressSharedEno), 1+rng.Intn(stressSharedEno)
			stressTxn(t, s, w, []string{
				fmt.Sprintf("UPDATE emp SET salary = %d WHERE eno = %d", 100+rng.Intn(100), a),
				fmt.Sprintf("UPDATE emp SET salary = %d WHERE eno = %d", 100+rng.Intn(100), b),
			}, false)
		default: // indexed point read of a shared row
			eno := 1 + rng.Intn(stressSharedEno)
			res, err := s.Exec(fmt.Sprintf("SELECT name, dno FROM emp WHERE eno = %d", eno))
			if err != nil {
				if !errors.Is(err, lock.ErrDeadlock) {
					t.Errorf("w%d read: %v", w, err)
				}
				continue
			}
			if len(res.Rows) != 1 {
				t.Errorf("w%d read eno %d: %d rows", w, eno, len(res.Rows))
			}
		}
	}
}

// stressTxn runs stmts inside an explicit transaction, rolling back on a
// deadlock victim (or always, when rollback is set). Any non-deadlock
// failure is fatal for the harness.
func stressTxn(t *testing.T, s *Session, w int, stmts []string, rollback bool) {
	t.Helper()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Errorf("w%d begin: %v", w, err)
		return
	}
	end := "COMMIT"
	if rollback {
		end = "ROLLBACK"
	}
	for _, stmt := range stmts {
		if _, err := s.Exec(stmt); err != nil {
			if !errors.Is(err, lock.ErrDeadlock) {
				t.Errorf("w%d: %q: %v", w, stmt, err)
			}
			end = "ROLLBACK"
			break
		}
	}
	if _, err := s.Exec(end); err != nil {
		t.Errorf("w%d %s: %v", w, end, err)
	}
}

// stressVerify checks the full durability and integrity contract against
// the acknowledged model after a restart.
func stressVerify(t *testing.T, db *DB, model *stressModel, round int) {
	t.Helper()
	s := db.NewSession()
	res, err := s.Exec("SELECT eno, name, dno, salary FROM emp")
	if err != nil {
		t.Fatalf("round %d: scan: %v", round, err)
	}
	model.mu.Lock()
	defer model.mu.Unlock()
	seen := make(map[int]stressRow, len(res.Rows))
	for _, r := range res.Rows {
		eno := int(r[0].AsInt())
		if _, dup := seen[eno]; dup {
			t.Fatalf("round %d: duplicate eno %d (unique constraint violated)", round, eno)
		}
		seen[eno] = stressRow{name: r[1].S, dno: int(r[2].AsInt()), salary: int(r[3].AsInt())}
	}
	if want, got := len(model.rows)+len(model.shared), len(seen); want != got {
		t.Fatalf("round %d: %d rows survive, want %d", round, got, want)
	}
	for eno, want := range model.rows {
		got, ok := seen[eno]
		if !ok {
			t.Fatalf("round %d: committed row %d lost", round, eno)
		}
		if got != want {
			t.Fatalf("round %d: row %d = %+v, want %+v", round, eno, got, want)
		}
	}
	for eno := range model.shared {
		if _, ok := seen[eno]; !ok {
			t.Fatalf("round %d: shared row %d lost", round, eno)
		}
	}
	// Referential integrity: every emp.dno has its dept parent.
	sums := map[int]float64{}
	counts := map[int]int64{}
	for eno, r := range seen {
		if r.dno < 1 || r.dno > stressDepts {
			t.Fatalf("round %d: row %d references missing dept %d", round, eno, r.dno)
		}
		sums[r.dno] += float64(r.salary)
		counts[r.dno]++
	}
	// Index path agrees with the base relation (spot-check via point query).
	checked := 0
	for eno, want := range model.rows {
		if checked >= 20 {
			break
		}
		checked++
		res, err := s.Exec(fmt.Sprintf("SELECT salary FROM emp WHERE eno = %d", eno))
		if err != nil {
			t.Fatalf("round %d: point query %d: %v", round, eno, err)
		}
		if len(res.Rows) != 1 || int(res.Rows[0][0].AsInt()) != want.salary {
			t.Fatalf("round %d: index point query %d = %v, want salary %d", round, eno, res.Rows, want.salary)
		}
	}
	// Materialised aggregate matches the from-scratch scan.
	rd, ok := db.Env.Cat.ByName("emp")
	if !ok {
		t.Fatalf("round %d: emp descriptor missing", round)
	}
	instAny, err := db.Env.AttachmentInstance(rd, core.AttAggMV)
	if err != nil {
		t.Fatalf("round %d: aggregate instance: %v", round, err)
	}
	inst := instAny.(*aggmv.Instance)
	for d := 1; d <= stressDepts; d++ {
		sum, count, err := inst.Lookup("salsum", Int(int64(d)))
		if err != nil {
			t.Fatalf("round %d: aggregate lookup dept %d: %v", round, d, err)
		}
		if sum != sums[d] || count != counts[d] {
			t.Fatalf("round %d: aggregate dept %d = (%v, %d), scan says (%v, %d)",
				round, d, sum, count, sums[d], counts[d])
		}
	}
}
