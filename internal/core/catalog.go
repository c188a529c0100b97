package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dmx/internal/txn"
	"dmx/internal/wal"
)

// Catalog is the common descriptor-management facility: it stores the
// composite relation descriptors, allocates relation identifiers, and
// makes catalog changes transactional by logging them as system-owned
// records (so aborting a DDL statement restores the descriptors, and
// restart recovery replays them before the data records that need them).
//
// Descriptors handed out by Get/ByName are immutable snapshots: DDL clones,
// mutates, and swaps, so bound query plans embedding an old descriptor are
// never mutated underneath — they detect staleness via the Version field.
//
// Each relation ID has one runtime slot (relSlot): the current descriptor,
// the storage and attachment instances and the dispatch rollup. mu guards
// the two maps and nextID; a slot's own fields are atomics or guarded by
// the slot's open locks.
type Catalog struct {
	env    *Env
	mu     sync.RWMutex
	slots  map[uint32]*relSlot // by relation ID, dropped relations included
	byName map[string]*relSlot // catalogued relations by lower-cased name
	nextID uint32
}

// relSlot is one relation's runtime state: the runtime copy of its
// descriptor, with field N of att serving attachment type N as AttDesc[N]
// describes it. A slot outlives its relation's drop: the drop keeps the
// last descriptor and sets dropped (which its undo clears), and the rollup
// stays behind sys.stat_relations (RelIDs are never reused in a process).
// Open Relation handles keep their slot, so they read the descriptor of
// the moment and reach the instances with no catalog lookup.
type relSlot struct {
	rd      atomic.Pointer[RelDesc]
	dropped atomic.Bool
	smMu    sync.Mutex // single-flight storage Open (and Close)
	sm      atomic.Pointer[StorageInstance]
	att     [MaxAttachmentTypes]attSlot
	stat    RelStat
}

// attSlot caches one attachment type's instance on a relation. mu makes
// opening and reconfiguring single-flight: Open may populate state from
// the relation's contents or hold connections, so a concurrent second
// Open whose result is discarded is not harmless. Readers load the
// published entry without taking mu.
type attSlot struct {
	mu  sync.Mutex
	cur atomic.Pointer[attEntry]
}

// attEntry is immutable once published; a reconfigure publishes a new one.
type attEntry struct {
	version uint64
	inst    AttachmentInstance
}

// NewCatalog returns an empty catalog bound to env.
func NewCatalog(env *Env) *Catalog {
	return &Catalog{
		env:    env,
		slots:  make(map[uint32]*relSlot),
		byName: make(map[string]*relSlot),
		nextID: 1,
	}
}

// Get returns the current descriptor for relID.
func (c *Catalog) Get(relID uint32) (*RelDesc, bool) {
	if s := c.live(relID); s != nil {
		return s.rd.Load(), true
	}
	return nil, false
}

// live returns relID's slot while the relation is catalogued, else nil.
func (c *Catalog) live(relID uint32) *relSlot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s := c.slots[relID]; s.catalogued() {
		return s
	}
	return nil
}

// catalogued reports whether s holds a relation the catalog lists.
func (s *relSlot) catalogued() bool { return s != nil && s.rd.Load() != nil && !s.dropped.Load() }

// ByName returns the current descriptor for the named relation
// (case-insensitive).
func (c *Catalog) ByName(name string) (*RelDesc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s := c.byName[strings.ToLower(name)]; s != nil {
		return s.rd.Load(), true
	}
	return nil, false
}

// Relations returns the current descriptor of every catalogued relation,
// system relations included, in name order.
func (c *Catalog) Relations() []*RelDesc {
	c.mu.RLock()
	out := make([]*RelDesc, 0, len(c.byName))
	for _, s := range c.byName {
		out = append(out, s.rd.Load())
	}
	c.mu.RUnlock()
	slices.SortFunc(out, func(a, b *RelDesc) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// slot returns relID's slot, creating it on first use: a storage instance
// may be opened from a descriptor the catalog does not hold.
func (c *Catalog) slot(relID uint32) *relSlot {
	if s := c.lookup(relID); s != nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slotLocked(relID)
}

func (c *Catalog) slotLocked(relID uint32) *relSlot {
	s := c.slots[relID]
	if s == nil {
		s = &relSlot{}
		c.slots[relID] = s
	}
	return s
}

// lookup returns relID's slot, or nil if it has none.
func (c *Catalog) lookup(relID uint32) *relSlot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.slots[relID]
}

// allSlots returns every slot, dropped relations' included.
func (c *Catalog) allSlots() []*relSlot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*relSlot, 0, len(c.slots))
	for _, s := range c.slots {
		out = append(out, s)
	}
	return out
}

// AllocateRelID reserves a fresh relation identifier.
func (c *Catalog) AllocateRelID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	return id
}

// catalog log payload ops
const (
	catCreate byte = 1
	catDrop   byte = 2
	catUpdate byte = 3
)

// CreateRelation installs rd (whose RelID must be allocated and SMDesc
// filled in by the storage method) under txn control.
func (c *Catalog) CreateRelation(tx *txn.Txn, rd *RelDesc) error {
	c.mu.Lock()
	if _, dup := c.byName[strings.ToLower(rd.Name)]; dup {
		c.mu.Unlock()
		return fmt.Errorf("core: relation %q already exists", rd.Name)
	}
	c.mu.Unlock()
	payload := append([]byte{catCreate}, rd.AppendEncode(nil)...)
	if _, err := tx.AppendLog(wal.Owner{Class: wal.OwnerSystem, RelID: rd.RelID}, payload); err != nil {
		return err
	}
	c.install(rd)
	return nil
}

// DropRelation removes rd's relation under txn control. The descriptor
// removal is undoable (the full descriptor is logged); the actual release
// of the relation's storage is deferred until the transaction commits, via
// the deferred action queue, so the drop can be undone without logging the
// entire relation state.
func (c *Catalog) DropRelation(tx *txn.Txn, rd *RelDesc) error {
	payload := append([]byte{catDrop}, rd.AppendEncode(nil)...)
	if _, err := tx.AppendLog(wal.Owner{Class: wal.OwnerSystem, RelID: rd.RelID}, payload); err != nil {
		return err
	}
	c.remove(rd.RelID)
	relID, sm := rd.RelID, rd.SM
	return tx.Defer(txn.EventCommit, func(*txn.Txn, string) error {
		if ops := c.env.Reg.StorageOps(sm); ops != nil && ops.Drop != nil {
			if err := ops.Drop(c.env, rd); err != nil {
				return err
			}
		}
		c.env.DropInstances(relID)
		return nil
	})
}

// UpdateDesc replaces a relation's descriptor (attachment create/drop)
// under txn control; newRD must be a clone with Version bumped.
func (c *Catalog) UpdateDesc(tx *txn.Txn, oldRD, newRD *RelDesc) error {
	if oldRD.RelID != newRD.RelID {
		return fmt.Errorf("core: descriptor update changes relation id")
	}
	// Payload layout: op | len(old) | old descriptor | new descriptor.
	oldBytes := oldRD.AppendEncode(nil)
	buf := []byte{catUpdate}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(oldBytes)))
	buf = append(buf, oldBytes...)
	buf = append(buf, newRD.AppendEncode(nil)...)
	if _, err := tx.AppendLog(wal.Owner{Class: wal.OwnerSystem, RelID: newRD.RelID}, buf); err != nil {
		return err
	}
	c.install(newRD)
	return c.env.InvalidateRelation(newRD.RelID)
}

// install makes rd its relation's current descriptor. It also places the
// system relations, which are process state: installed at every Env
// construction without logging, never checkpointed or recovered.
func (c *Catalog) install(rd *RelDesc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.slotLocked(rd.RelID)
	s.rd.Store(rd)
	s.dropped.Store(false)
	c.byName[strings.ToLower(rd.Name)] = s
	// System relations live in a reserved high ID range; installing one
	// must not drag the user-relation ID sequence up behind it.
	if rd.RelID >= c.nextID && !IsSystemRelID(rd.RelID) {
		c.nextID = rd.RelID + 1
	}
}

func (c *Catalog) remove(relID uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.slots[relID]; s.catalogued() {
		delete(c.byName, strings.ToLower(s.rd.Load().Name))
		s.dropped.Store(true)
	}
}

// ApplySystemLogged implements undo/redo for catalog log records: undo of
// create removes the relation, undo of drop restores it, undo of update
// restores the old descriptor; redo repeats the forward action.
func (c *Catalog) ApplySystemLogged(payload []byte, undo bool) error {
	if len(payload) < 1 {
		return fmt.Errorf("core: empty catalog log payload")
	}
	op := payload[0]
	body := payload[1:]
	switch op {
	case catCreate, catDrop:
		rd, _, err := DecodeRelDesc(body)
		if err != nil {
			return err
		}
		removeIt := (op == catCreate) == undo // create+undo or drop+redo
		if removeIt {
			c.remove(rd.RelID)
			c.env.DropInstances(rd.RelID)
			return nil
		}
		c.install(rd)
		return c.env.InvalidateRelation(rd.RelID)
	case catUpdate:
		if len(body) < 4 {
			return fmt.Errorf("core: truncated catalog update payload")
		}
		oldLen := int(binary.BigEndian.Uint32(body))
		if len(body) < 4+oldLen {
			return fmt.Errorf("core: truncated catalog update old descriptor")
		}
		oldRD, _, err := DecodeRelDesc(body[4 : 4+oldLen])
		if err != nil {
			return err
		}
		newRD, _, err := DecodeRelDesc(body[4+oldLen:])
		if err != nil {
			return err
		}
		if undo {
			c.install(oldRD)
			return c.env.InvalidateRelation(oldRD.RelID)
		}
		c.install(newRD)
		return c.env.InvalidateRelation(newRD.RelID)
	default:
		return fmt.Errorf("core: unknown catalog log op %d", op)
	}
}
