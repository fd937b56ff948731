package fib

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
)

// EncapEntry maps a virtual next hop (the address of a UML-style virtual
// interface on a neighboring virtual node) to the tunnel that reaches it:
// the public address/port of the PlanetLab node hosting that virtual node.
type EncapEntry struct {
	NextHop netip.Addr // virtual interface address (10/8 space)
	Remote  netip.Addr // public address of the physical node
	Port    uint16     // UDP tunnel port
	Tunnel  int        // local tunnel index (Click output port)
}

// EncapTable is the preconfigured table Click consults after the FIB
// lookup to map the selected virtual next hop onto a UDP tunnel
// (Section 4.2.1). Unlike the FIB it is exact-match and changes only when
// the virtual topology changes.
type EncapTable struct {
	mu      sync.RWMutex
	entries map[netip.Addr]EncapEntry
	// byTunnel indexes entries by local tunnel index, so per-packet
	// transmit paths (ToTunnel) resolve without scanning.
	byTunnel map[int]EncapEntry
	// byRemote indexes by public address of the physical node, the reverse
	// lookup tunnel receive does to identify the ingress tunnel.
	byRemote map[netip.Addr]EncapEntry
	// version increments on every mutation so per-element caches
	// invalidate, mirroring fib.Table.
	version atomic.Uint64
	// aliases maps additional remote addresses onto the entry for a
	// canonical one, so a migrating neighbor's drain-window traffic (still
	// sourced from its old physical address) keeps demultiplexing to the
	// right ingress tunnel after the entry's Remote has been repointed.
	aliases map[netip.Addr]netip.Addr
}

// NewEncapTable returns an empty encapsulation table.
func NewEncapTable() *EncapTable {
	return &EncapTable{
		entries:  make(map[netip.Addr]EncapEntry),
		byTunnel: make(map[int]EncapEntry),
		byRemote: make(map[netip.Addr]EncapEntry),
	}
}

// Version returns the mutation counter.
func (t *EncapTable) Version() uint64 { return t.version.Load() }

// Set installs the mapping for e.NextHop.
func (t *EncapTable) Set(e EncapEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.entries[e.NextHop]; ok {
		delete(t.byTunnel, old.Tunnel)
	}
	t.entries[e.NextHop] = e
	t.byTunnel[e.Tunnel] = e
	t.reindexRemoteLocked()
	t.version.Add(1)
}

// reindexRemoteLocked rebuilds the reverse index. When several tunnels
// share a remote (two virtual links to neighbors on one physical node),
// the lowest next hop wins. Mutations are control-plane rare, so a full rebuild is fine.
func (t *EncapTable) reindexRemoteLocked() {
	clear(t.byRemote)
	for _, e := range t.entries {
		if ex, ok := t.byRemote[e.Remote]; !ok || e.NextHop.Less(ex.NextHop) {
			t.byRemote[e.Remote] = e
		}
	}
}

// ByTunnel resolves a local tunnel index to its entry.
func (t *EncapTable) ByTunnel(tunnel int) (EncapEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.byTunnel[tunnel]
	return e, ok
}

// ByRemote resolves the public address of a physical neighbor to the
// entry a sorted Entries() scan would find first (tunnel-ingress
// identification without the per-packet scan). Addresses with no direct
// entry fall back through the alias table.
func (t *EncapTable) ByRemote(remote netip.Addr) (EncapEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, ok := t.byRemote[remote]; ok {
		return e, ok
	}
	if canon, ok := t.aliases[remote]; ok {
		e, ok := t.byRemote[canon]
		return e, ok
	}
	return EncapEntry{}, false
}

// SetRemoteAlias makes packets sourced from alias resolve as if from
// canonical. Migration cutover installs one per neighbor before
// repointing the entry's Remote to the shadow's address: the old
// instance's drain-window traffic then still identifies the same ingress
// tunnel. Aliases survive Set/Remove reindexing; ClearRemoteAlias
// removes one at retire.
func (t *EncapTable) SetRemoteAlias(alias, canonical netip.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.aliases == nil {
		t.aliases = make(map[netip.Addr]netip.Addr)
	}
	t.aliases[alias] = canonical
	t.version.Add(1)
}

// ClearRemoteAlias removes a remote alias installed by SetRemoteAlias.
func (t *EncapTable) ClearRemoteAlias(alias netip.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.aliases, alias)
	t.version.Add(1)
}

// Lookup resolves a virtual next hop to its tunnel.
func (t *EncapTable) Lookup(nextHop netip.Addr) (EncapEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[nextHop]
	return e, ok
}

func (e EncapEntry) String() string {
	return fmt.Sprintf("%s -> %s:%d (tunnel %d)", e.NextHop, e.Remote, e.Port, e.Tunnel)
}
