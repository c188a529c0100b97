package remote

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dmx/internal/types"
)

func client(t *testing.T, latency time.Duration) (*Server, *Client) {
	t.Helper()
	srv := NewServer(latency)
	c := Dial(srv)
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func rec(vals ...types.Value) types.Record { return types.Record(vals) }

func TestTableLifecycle(t *testing.T) {
	_, c := client(t, 0)
	if _, err := c.Put("ghost", nil, rec(types.Int(1))); err == nil {
		t.Fatal("put to missing table accepted")
	}
	if err := c.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	// Idempotent create.
	if err := c.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("t", nil, rec(types.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(0, "t", types.Key{1}); err == nil {
		t.Fatal("get from dropped table accepted")
	}
}

func TestPutGetDeleteCount(t *testing.T) {
	_, c := client(t, 0)
	c.CreateTable("t")
	k1, err := c.Put("t", nil, rec(types.Int(1), types.Str("a")))
	if err != nil || k1 == nil {
		t.Fatalf("put: %v %v", k1, err)
	}
	k2, _ := c.Put("t", nil, rec(types.Int(2), types.Str("b")))
	if k1.Equal(k2) {
		t.Fatal("server reused a key")
	}
	got, err := c.Get(0, "t", k1)
	if err != nil || got[1].S != "a" {
		t.Fatalf("get: %v %v", got, err)
	}
	// Explicit-key put overwrites.
	if _, err := c.Put("t", k1, rec(types.Int(1), types.Str("a2"))); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Get(0, "t", k1)
	if got[1].S != "a2" {
		t.Fatal("overwrite lost")
	}
	if n, _ := c.Count("t"); n != 2 {
		t.Fatalf("count = %d", n)
	}
	if err := c.Delete("t", k1); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("t", k1); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := c.Get(0, "t", k1); err == nil {
		t.Fatal("get of deleted accepted")
	}
	if n, _ := c.Count("t"); n != 1 {
		t.Fatalf("count after delete = %d", n)
	}
}

func TestExplicitKeyAdvancesSequence(t *testing.T) {
	_, c := client(t, 0)
	c.CreateTable("t")
	// Seed an explicit high key; server-assigned keys must not collide.
	high := types.Key{0, 0, 0, 0, 0, 0, 0, 200}
	if _, err := c.Put("t", high, rec(types.Int(1))); err != nil {
		t.Fatal(err)
	}
	k, err := c.Put("t", nil, rec(types.Int(2)))
	if err != nil {
		t.Fatal(err)
	}
	if k.Equal(high) {
		t.Fatal("assigned key collided with explicit key")
	}
	if n, _ := c.Count("t"); n != 2 {
		t.Fatalf("count = %d", n)
	}
}

func TestScanBatchOrderAndPaging(t *testing.T) {
	_, c := client(t, 0)
	c.CreateTable("t")
	for i := 0; i < 25; i++ {
		if _, err := c.Put("t", nil, rec(types.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	var all []Entry
	var after types.Key
	for {
		batch, err := c.ScanBatch(0, "t", after, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		if len(batch) > 10 {
			t.Fatalf("batch size %d", len(batch))
		}
		all = append(all, batch...)
		after = types.Key(batch[len(batch)-1].Key)
	}
	if len(all) != 25 {
		t.Fatalf("paged scan = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if string(all[i-1].Key) >= string(all[i].Key) {
			t.Fatal("scan not in key order")
		}
	}
	// Decode one record to check payload integrity.
	r, _, err := types.DecodeRecord(all[7].Rec)
	if err != nil || r[0].AsInt() != 7 {
		t.Fatalf("entry payload: %v %v", r, err)
	}
}

func TestLatencyAndMessageCounting(t *testing.T) {
	srv, c := client(t, time.Millisecond)
	c.CreateTable("t")
	before := srv.Messages.Load()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := c.Put("t", nil, rec(types.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("latency not applied: %v", el)
	}
	if srv.Messages.Load()-before != 5 {
		t.Fatalf("messages = %d", srv.Messages.Load()-before)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := NewServer(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := Dial(srv)
			defer c.Close()
			table := string(rune('a' + g))
			if err := c.CreateTable(table); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				if _, err := c.Put(table, nil, rec(types.Int(int64(i)))); err != nil {
					t.Error(err)
					return
				}
			}
			if n, err := c.Count(table); err != nil || n != 200 {
				t.Errorf("table %s count = %d, %v", table, n, err)
			}
		}(g)
	}
	wg.Wait()
}

// TestScanOverlaysStagedWrites pages through committed records with a
// transaction's staged puts and tombstones merged in key order: a batch
// starts strictly after its anchor, a staged put appears (over a committed
// record of the same key too), a tombstone hides the committed record, and
// other transactions see committed state only.
func TestScanOverlaysStagedWrites(t *testing.T) {
	_, c := client(t, 0)
	c.CreateTable("t")
	key := func(s string) types.Key { return types.Key(s) }
	for _, k := range []string{"b", "d", "f", "h"} {
		if _, err := c.Put("t", key(k), rec(types.Str(k))); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"a", "d", "e", "i"} {
		if _, err := c.StagePut(7, "t", key(k), rec(types.Str(k+"'"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StageDelete(7, "t", key("f")); err != nil {
		t.Fatal(err)
	}
	scan := func(txn uint64, limit int) string {
		var out string
		var after types.Key
		for {
			batch, err := c.ScanBatch(txn, "t", after, nil, limit)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) == 0 {
				return out
			}
			for _, e := range batch {
				r, _, err := types.DecodeRecord(e.Rec)
				if err != nil {
					t.Fatal(err)
				}
				out += string(e.Key) + "=" + r[0].S + " "
			}
			after = batch[len(batch)-1].Key
		}
	}
	for _, limit := range []int{1, 2, 3, 100} {
		if got, want := scan(7, limit), "a=a' b=b d=d' e=e' h=h i=i' "; got != want {
			t.Fatalf("limit %d: own transaction scans %q, want %q", limit, got, want)
		}
		if got, want := scan(8, limit), "b=b d=d f=f h=h "; got != want {
			t.Fatalf("limit %d: another transaction scans %q, want %q", limit, got, want)
		}
	}
}

// TestStagedPutAssignsKey checks the staged counterpart of a nil-key Put:
// the key is assigned when the write is staged (the client logs it before
// the transaction decides), the record is the transaction's alone until
// CommitTxn, and the sequence number is not reissued meanwhile.
func TestStagedPutAssignsKey(t *testing.T) {
	_, c := client(t, 0)
	c.CreateTable("t")
	k1, err := c.StagePut(7, "t", nil, rec(types.Int(1)))
	if err != nil || len(k1) != 8 {
		t.Fatalf("staged put: key %v, %v", k1, err)
	}
	k2, err := c.Put("t", nil, rec(types.Int(2)))
	if err != nil || k2.Equal(k1) {
		t.Fatalf("immediate put reused the staged key: %v %v", k2, err)
	}
	if _, err := c.Get(0, "t", k1); err == nil {
		t.Fatal("staged record visible outside its transaction")
	}
	if got, err := c.Get(7, "t", k1); err != nil || got[0].AsInt() != 1 {
		t.Fatalf("staged record invisible to its own transaction: %v %v", got, err)
	}
	if err := c.StageDelete(7, "t", nil); err == nil {
		t.Fatal("staged delete without a key accepted")
	}
	if err := c.CommitTxn(7); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(0, "t", k1); err != nil || got[0].AsInt() != 1 {
		t.Fatalf("committed record: %v %v", got, err)
	}
}

// TestStageInsertDuplicates refuses a staged insert exactly where a Get
// under the same transaction finds a record: over a committed key and over
// the transaction's own staged put, but not after its own staged delete
// or over another transaction's uncommitted put. A refused insert stages
// nothing.
func TestStageInsertDuplicates(t *testing.T) {
	_, c := client(t, 0)
	c.CreateTable("t")
	key := func(s string) types.Key { return types.Key(s) }
	for _, k := range []string{"committed", "deleted"} {
		if _, err := c.Put("t", key(k), rec(types.Str(k))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.StagePut(7, "t", key("own"), rec(types.Str("own"))); err != nil {
		t.Fatal(err)
	}
	if err := c.StageDelete(7, "t", key("deleted")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StagePut(8, "t", key("other"), rec(types.Str("other"))); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key string
		dup bool
	}{
		{"committed", true},
		{"own", true},
		{"deleted", false},
		{"other", false},
		{"fresh", false},
		{"fresh", true}, // staged by the insert just before
	} {
		_, getErr := c.Get(7, "t", key(tc.key))
		if seen := getErr == nil; seen != tc.dup {
			t.Fatalf("%s: Get sees a record: %v, want %v", tc.key, seen, tc.dup)
		}
		err := c.StageInsert(7, "t", key(tc.key), rec(types.Str("new")))
		if tc.dup && !errors.Is(err, ErrDuplicateKey) || !tc.dup && err != nil {
			t.Fatalf("%s: StageInsert = %v, want duplicate %v", tc.key, err, tc.dup)
		}
	}
	if got, err := c.Get(7, "t", key("committed")); err != nil || got[0].S != "committed" {
		t.Fatalf("a refused insert staged its record: %v %v", got, err)
	}
	if err := c.StageInsert(7, "t", nil, rec(types.Str("x"))); err == nil {
		t.Fatal("staged insert without a key accepted")
	}
}
