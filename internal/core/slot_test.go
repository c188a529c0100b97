package core_test

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dmx/internal/core"
	"dmx/internal/lock"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// attCount is a test attachment type that records the descriptor version
// its instance was last brought to and counts the inserts it is notified of.
const attCount core.AttID = 22

type countInst struct {
	vetoInst
	env     *core.Env
	version atomic.Uint64
	inserts atomic.Int64
}

func (c *countInst) OnInsert(*txn.Txn, types.Key, types.Record) error {
	c.inserts.Add(1)
	return nil
}

func (c *countInst) Reconfigure(rd *core.RelDesc) error {
	c.bring(rd)
	return nil
}

func (c *countInst) bring(rd *core.RelDesc) {
	c.version.Store(rd.Version)
	countMu.Lock()
	defer countMu.Unlock()
	countBrings[bringKey{instKey{c.env, rd.RelID}, rd.Version}]++
}

type bringKey struct {
	instKey
	version uint64
}

var (
	countMu     sync.Mutex
	countOpens  = map[instKey]int{}
	countBrings = map[bringKey]int{} // Open and Reconfigure calls by descriptor version
)

func init() {
	core.RegisterAttachment(&core.AttachmentOps{
		ID: attCount, Name: "count",
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			return []byte{1}, nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.AttachmentInstance, error) {
			countMu.Lock()
			countOpens[instKey{env, rd.RelID}]++
			countMu.Unlock()
			c := &countInst{env: env}
			c.bring(rd)
			return c, nil
		},
	})
}

func countOf(t *testing.T, env *core.Env, rd *core.RelDesc) *countInst {
	t.Helper()
	inst, err := env.AttachmentInstance(rd, attCount)
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*countInst)
}

func relationNames(env *core.Env) []string {
	var names []string
	for _, rd := range env.Cat.Relations() {
		names = append(names, rd.Name)
	}
	return names
}

// TestRelationSlotLifecycle follows one relation's runtime slot through
// CREATE, CREATE INDEX rolled back and committed, DROP rolled back and
// committed, and recovery redo: a handle opened at the start always reads
// the catalog's current descriptor, its writes reach exactly the
// attachments that descriptor names, the cached attachment instance
// follows every version (back down on undo), and the dropped relation's
// rollup stays with an empty name.
func TestRelationSlotLifecycle(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	mkRel(t, env, "b", "memory", "count")
	rd := mkRel(t, env, "t", "memory")
	mkRel(t, env, "a", "memory")
	h, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	insert := func(tx *txn.Txn) error {
		id++
		_, err := h.Insert(tx, rec(id, "x"))
		return err
	}
	commitInsert := func() {
		t.Helper()
		tx := env.Begin()
		if err := insert(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// follows checks the handle, the catalog and the cached instance agree.
	follows := func(step string, indexed bool) {
		t.Helper()
		cur, ok := env.Cat.Get(rd.RelID)
		if !ok || h.Desc() != cur {
			t.Fatalf("%s: handle reads %v, catalog %v (%v)", step, h.Desc(), cur, ok)
		}
		if cur.HasAttachment(attCount) != indexed {
			t.Fatalf("%s: descriptor version %d indexed = %v", step, cur.Version, !indexed)
		}
		if got := countOf(t, env, cur).version.Load(); got != cur.Version {
			t.Fatalf("%s: instance at version %d, descriptor %d", step, got, cur.Version)
		}
	}
	commitInsert()
	c := countOf(t, env, rd)
	follows("create", false)

	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "t", "count", nil); err != nil {
		t.Fatal(err)
	}
	follows("create index, uncommitted", true)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	follows("create index rolled back", false)
	commitInsert()
	if n := c.inserts.Load(); n != 0 {
		t.Fatalf("an unindexed relation notified its instance of %d inserts", n)
	}

	tx = env.Begin()
	if _, err := env.CreateAttachment(tx, "t", "count", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	follows("create index committed", true)
	commitInsert()
	if n := c.inserts.Load(); n != 1 {
		t.Fatalf("the index saw %d inserts through the handle opened before it, want 1", n)
	}

	tx = env.Begin()
	if err := env.DropRelation(tx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Cat.Get(rd.RelID); ok {
		t.Fatal("a dropped relation is still catalogued")
	}
	if got := relationNames(env); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("Relations during the drop = %v", got)
	}
	if err := insert(tx); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("insert into a dropped relation: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	follows("drop rolled back", true)
	commitInsert()
	if got := relationNames(env); !slices.Equal(got, []string{"a", "b", "t"}) {
		t.Fatalf("Relations = %v, want name order", got)
	}

	tx = env.Begin()
	if err := env.DropRelation(tx, "t"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	if err := insert(tx); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("insert through a handle on a dropped relation: %v", err)
	}
	tx.Abort()
	if _, err := env.OpenRelation(rd); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("open of a dropped relation: %v", err)
	}
	dropped := func(env *core.Env) core.RelStatRow {
		t.Helper()
		for _, row := range env.RelStatRows() {
			if row.RelID == rd.RelID {
				if row.Name != "" {
					t.Fatalf("dropped relation's row is named %q", row.Name)
				}
				return row
			}
		}
		t.Fatal("the dropped relation's rollup is gone")
		return core.RelStatRow{}
	}
	if row := dropped(env); row.Inserts != 4 {
		t.Fatalf("dropped relation's row counts %d inserts, want 4", row.Inserts)
	}

	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := relationNames(env2); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("Relations after recovery = %v", got)
	}
	dropped(env2)
	b, _ := env2.Cat.ByName("b")
	hb, err := env2.OpenRelation(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, env2, hb.Desc()).version.Load(); got != b.Version {
		t.Fatalf("recovered instance at version %d, descriptor %d", got, b.Version)
	}
}

// TestRelationSlotConcurrentDDL opens handles, attachment instances and
// the relation list while another goroutine creates and drops an index:
// every version is brought into the one cached instance at most once, by
// one Open and then Reconfigure, and no reader sees an instance older than
// the descriptor it asked with.
func TestRelationSlotConcurrentDDL(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "t", "memory")
	mkRel(t, env, "s", "memory")
	const rounds, readers = 40, 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for range rounds {
			for _, ddl := range []func(*txn.Txn, string, string, core.AttrList) (*core.RelDesc, error){env.CreateAttachment, env.DropAttachment} {
				tx := env.Begin()
				if _, err := ddl(tx, "t", "count", nil); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cur, ok := env.Cat.ByName("t")
				if !ok {
					t.Error("relation t missing")
					return
				}
				h, err := env.OpenRelation(cur)
				if err != nil {
					t.Error(err)
					return
				}
				if h.Desc().Version < cur.Version {
					t.Errorf("handle reads version %d, opened with %d", h.Desc().Version, cur.Version)
				}
				inst, err := env.AttachmentInstance(cur, attCount)
				if err != nil {
					t.Error(err)
					return
				}
				if v := inst.(*countInst).version.Load(); v < cur.Version {
					t.Errorf("instance at version %d, asked with %d", v, cur.Version)
				}
				if names := relationNames(env); !slices.Equal(names, []string{"s", "t"}) {
					t.Errorf("Relations = %v, want name order", names)
				}
			}
		}()
	}
	wg.Wait()
	cur, _ := env.Cat.Get(rd.RelID)
	if got := countOf(t, env, cur).version.Load(); got != cur.Version {
		t.Fatalf("instance at version %d, descriptor %d", got, cur.Version)
	}
	countMu.Lock()
	defer countMu.Unlock()
	if n := countOpens[instKey{env, rd.RelID}]; n != 1 {
		t.Fatalf("%d Opens, want 1", n)
	}
	for k, n := range countBrings {
		if k.env == env && n != 1 {
			t.Errorf("version %d brought in %d times", k.version, n)
		}
	}
}

// TestDDLWaitsOutADrop: DDL that resolved a relation and then waited for
// its lock while another transaction dropped it finds the relation gone
// once the drop commits.
func TestDDLWaitsOutADrop(t *testing.T) {
	for name, ddl := range map[string]func(*core.Env, *txn.Txn) error{
		"create attachment": func(env *core.Env, tx *txn.Txn) error {
			_, err := env.CreateAttachment(tx, "t", "count", nil)
			return err
		},
		"drop attachment": func(env *core.Env, tx *txn.Txn) error {
			_, err := env.DropAttachment(tx, "t", "count", nil)
			return err
		},
		"drop relation": func(env *core.Env, tx *txn.Txn) error { return env.DropRelation(tx, "t") },
	} {
		t.Run(name, func(t *testing.T) {
			env := core.NewEnv(core.Config{})
			rd := mkRel(t, env, "t", "memory", "count")
			drop := env.Begin()
			if err := drop.Lock(lock.RelResource(rd.RelID), lock.ModeX); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				tx := env.Begin()
				defer tx.Abort()
				done <- ddl(env, tx)
			}()
			for {
				if _, waiting := env.Locks.SnapshotLocks(); len(waiting) > 0 {
					break
				}
				runtime.Gosched()
			}
			if err := env.DropRelation(drop, "t"); err != nil {
				t.Fatal(err)
			}
			if err := drop.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("DDL on a relation dropped while it waited: %v", err)
			}
		})
	}
}
