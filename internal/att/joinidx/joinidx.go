// Package joinidx implements the join-index attachment (Valduriez 1985) —
// the paper's example that "access paths need not be limited to a single
// table". A join index over relations A and B on an equi-join column
// maintains the correspondence between record keys of A and B whose join
// values match.
//
// One logical join index is realised as an attachment instance on each
// participating relation; the two instances share a value → record-key
// structure registered per environment, each maintaining its own side as
// a side effect of its relation's modifications. Matching record-key
// pairs are enumerated directly from the shared structure, so an
// equi-join needs no scan of either relation.
package joinidx

import (
	"fmt"
	"sync"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "joinindex"

const stateKey = "joinidx.shared"

// shared is one logical join index's two-sided structure.
type shared struct {
	mu    sync.Mutex
	sides map[uint32]attutil.Multimap // relID -> join value -> record keys
}

// side returns relID's side; s.mu is held.
func (s *shared) side(relID uint32) attutil.Multimap {
	side := s.sides[relID]
	if side == nil {
		side = attutil.Multimap{}
		s.sides[relID] = side
	}
	return side
}

type stateRegistry struct {
	mu      sync.Mutex
	byIndex map[string]*shared
}

func sharedFor(env *core.Env, indexName string) *shared {
	var reg *stateRegistry
	if v, ok := env.ExtState(stateKey); ok {
		reg = v.(*stateRegistry)
	} else {
		reg = &stateRegistry{byIndex: make(map[string]*shared)}
		env.SetExtState(stateKey, reg)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	s, ok := reg.byIndex[indexName]
	if !ok {
		s = &shared{sides: make(map[uint32]attutil.Multimap)}
		reg.byIndex[indexName] = s
	}
	return s
}

// side is one relation's end of a join index.
type side struct {
	relID   uint32
	peerRel string
	state   *shared
}

type def = attutil.Def[side]

var entries = attutil.EntryType[side]{
	// NULL never equi-joins, so a record with a NULL join value is paired
	// with nothing and has no entry.
	KeyOf: func(d *def, rec types.Record, _ types.Key) (types.Key, bool, error) {
		for _, f := range d.Fields {
			if rec[f].IsNull() {
				return nil, false, nil
			}
		}
		return types.EncodeKeyFields(rec, d.Fields), true, nil
	},
	Add: func(d *def, val, recKey types.Key) error {
		d.X.state.mu.Lock()
		defer d.X.state.mu.Unlock()
		d.X.state.side(d.X.relID).Add(val, recKey)
		return nil
	},
	Remove: func(d *def, val, recKey types.Key) error {
		d.X.state.mu.Lock()
		defer d.X.state.mu.Unlock()
		d.X.state.side(d.X.relID).Remove(val, recKey)
		return nil
	},
}

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[side, *Instance]{
		ID:    core.AttJoin,
		Name:  Name,
		Attrs: []string{"on", "peer"},
		Parse: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			name, ok := attrs.Get("name")
			if !ok {
				return attutil.IndexDef{}, fmt.Errorf("joinidx: a name=<join index> attribute is required (shared by both sides)")
			}
			peer, ok := attrs.Get("peer")
			if !ok {
				return attutil.IndexDef{}, fmt.Errorf("joinidx: a peer=<relation> attribute is required")
			}
			d, err := attutil.ParseOn(env, rd, attrs)
			d.Name, d.Extra = name, []byte(peer)
			return d, err
		},
		Decode: func(env *core.Env, rd *core.RelDesc, d attutil.IndexDef) (side, error) {
			return side{relID: rd.RelID, peerRel: string(d.Extra), state: sharedFor(env, d.Name)}, nil
		},
		Open: func(defs *attutil.Defs[side]) *Instance {
			return &Instance{attutil.NewEntries(defs, &entries)}
		},
		BuildRow: (*Instance).BuildRow,
	}))
}

// Instance services every join-index side on one relation.
type Instance struct {
	attutil.Entries[side]
}

// peerOf resolves the named join index on this relation and the
// identifier of its peer relation.
func (ix *Instance) peerOf(name string) (*def, uint32, error) {
	d, err := ix.Named(name)
	if err != nil {
		return nil, 0, err
	}
	peerRD, ok := ix.Env().Cat.ByName(d.X.peerRel)
	if !ok {
		return nil, 0, fmt.Errorf("joinidx: %w: peer relation %q", core.ErrNotFound, d.X.peerRel)
	}
	return d, peerRD.RelID, nil
}

// Pair is one matched record-key pair of a join index.
type Pair struct {
	Own  types.Key // record key in this instance's relation
	Peer types.Key // record key in the peer relation
}

// Pairs enumerates the matched record-key pairs of the named join index,
// from this relation's perspective. The peer relation's side must have
// been built (its attachment instance opened and maintained).
func (ix *Instance) Pairs(name string) ([]Pair, error) {
	d, peerID, err := ix.peerOf(name)
	if err != nil {
		return nil, err
	}
	state := d.X.state
	state.mu.Lock()
	defer state.mu.Unlock()
	peer := state.sides[peerID]
	var out []Pair
	for val, ownKeys := range state.sides[d.X.relID] {
		for _, ok1 := range ownKeys {
			for _, pk := range peer[val] {
				out = append(out, Pair{Own: ok1.Clone(), Peer: pk.Clone()})
			}
		}
	}
	return out, nil
}

// PeerKeys returns the peer-relation record keys whose join value matches
// val (an order-preserving key encoding of the join columns).
func (ix *Instance) PeerKeys(name string, val types.Key) ([]types.Key, error) {
	d, peerID, err := ix.peerOf(name)
	if err != nil {
		return nil, err
	}
	d.X.state.mu.Lock()
	defer d.X.state.mu.Unlock()
	return d.X.state.sides[peerID].Get(val), nil
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.Reconfigurer       = (*Instance)(nil)
)

// PairKeys enumerates matched (own, peer) record-key pairs of the named
// join index as plain key arrays — the structural interface the query
// planner consumes.
func (ix *Instance) PairKeys(name string) ([][2]types.Key, error) {
	pairs, err := ix.Pairs(name)
	if err != nil {
		return nil, err
	}
	out := make([][2]types.Key, len(pairs))
	for i, p := range pairs {
		out[i] = [2]types.Key{p.Own, p.Peer}
	}
	return out, nil
}
