package bgp

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"vini/internal/fib"
	"vini/internal/sim"
)

// Conn is a reliable, ordered byte-message channel to one peer (TCP in a
// live deployment, a delayed in-memory pipe in simulation).
type Conn interface {
	Send(msg []byte)
}

// PeerConfig describes one session.
type PeerConfig struct {
	Name string
	// EBGP marks an external session (AS path grows, next hop rewritten).
	EBGP bool
	// exportFilter, when set, decides which locally-best routes are
	// announced to this peer; nil exports everything. importPref, when
	// set, overrides LocalPref for routes learned from this peer. Only
	// this package's tests set them.
	exportFilter func(p netip.Prefix, attrs PathAttrs) bool
	importPref   uint32
}

// peer is session state.
type peer struct {
	cfg        PeerConfig
	conn       Conn
	state      string // Idle, OpenSent, Established
	remote     openMsg
	adjIn      map[netip.Prefix]PathAttrs
	advertised map[netip.Prefix]bool
	holdTimer  sim.Timer
	kaTimer    sim.Timer
}

// Route is a Loc-RIB entry with its source peer.
type Route struct {
	Prefix netip.Prefix
	Attrs  PathAttrs
	From   string // peer name; "" = locally originated
}

// Config describes a speaker.
type Config struct {
	ASN      uint32
	RouterID uint32
	// NextHopSelf is the address written into eBGP announcements.
	NextHopSelf netip.Addr
	// HoldTime defaults to 90s (keepalives at a third of that).
	HoldTime time.Duration
}

// Speaker is one BGP instance.
type Speaker struct {
	cfg   Config
	clock sim.Clock
	peers map[string]*peer
	// originated are local announcements (our slice's address block).
	originated map[netip.Prefix]PathAttrs
	locRIB     map[netip.Prefix]Route
	// onRoutes receives Loc-RIB changes (FEA hook).
	onRoutes func([]fib.Route)
	// onEvent reports session transitions for logs/tests.
	onEvent func(peer, event string)
}

// NewSpeaker creates a speaker.
func NewSpeaker(clock sim.Clock, cfg Config) *Speaker {
	if cfg.HoldTime <= 0 {
		cfg.HoldTime = 90 * time.Second
	}
	return &Speaker{
		cfg:        cfg,
		clock:      clock,
		peers:      make(map[string]*peer),
		originated: make(map[netip.Prefix]PathAttrs),
		locRIB:     make(map[netip.Prefix]Route),
	}
}

// OnRoutes installs the FEA hook.
func (s *Speaker) OnRoutes(fn func([]fib.Route)) { s.onRoutes = fn }

// OnEvent installs a session-event observer.
func (s *Speaker) OnEvent(fn func(peer, event string)) { s.onEvent = fn }

func (s *Speaker) event(p, e string) {
	if s.onEvent != nil {
		s.onEvent(p, e)
	}
}

// AddPeer registers a session and sends OPEN.
func (s *Speaker) AddPeer(cfg PeerConfig, conn Conn) error {
	if _, dup := s.peers[cfg.Name]; dup {
		return fmt.Errorf("bgp: duplicate peer %q", cfg.Name)
	}
	p := &peer{cfg: cfg, conn: conn, state: "OpenSent",
		adjIn: make(map[netip.Prefix]PathAttrs), advertised: make(map[netip.Prefix]bool)}
	s.peers[cfg.Name] = p
	conn.Send(marshalOpen(openMsg{ASN: s.cfg.ASN, RouterID: s.cfg.RouterID,
		HoldTime: uint16(s.cfg.HoldTime / time.Second)}))
	return nil
}

// Originate announces a locally owned prefix.
func (s *Speaker) Originate(p netip.Prefix, attrs PathAttrs) {
	if attrs.LocalPref == 0 {
		attrs.LocalPref = 100
	}
	s.originated[p.Masked()] = attrs
	s.decide()
}

// Withdraw removes a local announcement.
func (s *Speaker) Withdraw(p netip.Prefix) {
	delete(s.originated, p.Masked())
	s.decide()
}

// Deliver feeds an incoming message from the named peer.
func (s *Speaker) Deliver(peerName string, msg []byte) error {
	p, ok := s.peers[peerName]
	if !ok {
		return fmt.Errorf("bgp: message from unknown peer %q", peerName)
	}
	typ, body, err := parseType(msg)
	if err != nil {
		return err
	}
	switch typ {
	case msgOpen:
		o, err := parseOpen(body)
		if err != nil {
			return err
		}
		p.remote = o
		if p.state == "OpenSent" {
			p.state = "Established"
			s.event(peerName, "established")
			p.conn.Send(marshalKeepalive())
			s.resetHold(p, peerName)
			s.startKeepalives(p)
			s.advertiseAll(p)
		}
	case msgKeepalive:
		s.resetHold(p, peerName)
	case msgUpdate:
		s.resetHold(p, peerName)
		u, err := parseUpdate(body)
		if err != nil {
			return err
		}
		s.handleUpdate(p, u)
	case msgNotification:
		n, _ := parseNotification(body)
		s.event(peerName, fmt.Sprintf("notification code %d", n.Code))
		s.sessionDown(peerName, p)
	default:
		return fmt.Errorf("bgp: unknown message type %d", typ)
	}
	return nil
}

func (s *Speaker) resetHold(p *peer, name string) {
	if !p.holdTimer.IsZero() {
		p.holdTimer.Stop()
	}
	hold := time.Duration(p.remote.HoldTime) * time.Second
	if hold <= 0 {
		hold = s.cfg.HoldTime
	}
	p.holdTimer = s.clock.Schedule(hold, func() {
		p.conn.Send(marshalNotification(notification{Code: noteHoldExpired}))
		s.event(name, "hold expired")
		s.sessionDown(name, p)
	})
}

func (s *Speaker) startKeepalives(p *peer) {
	interval := s.cfg.HoldTime / 3
	var tick func()
	tick = func() {
		if p.state != "Established" {
			return
		}
		p.conn.Send(marshalKeepalive())
		p.kaTimer = s.clock.Schedule(interval, tick)
	}
	p.kaTimer = s.clock.Schedule(interval, tick)
}

// sessionDown clears a failed session and withdraws its routes.
func (s *Speaker) sessionDown(name string, p *peer) {
	p.state = "Idle"
	if !p.holdTimer.IsZero() {
		p.holdTimer.Stop()
	}
	if !p.kaTimer.IsZero() {
		p.kaTimer.Stop()
	}
	p.adjIn = make(map[netip.Prefix]PathAttrs)
	p.advertised = make(map[netip.Prefix]bool)
	s.decide()
}

func (s *Speaker) handleUpdate(p *peer, u updateMsg) {
	for _, w := range u.Withdrawn {
		delete(p.adjIn, w.Masked())
	}
	for _, n := range u.NLRI {
		attrs := u.Attrs
		// Loop detection: reject paths containing our AS.
		looped := false
		for _, a := range attrs.ASPath {
			if a == s.cfg.ASN {
				looped = true
				break
			}
		}
		if looped {
			continue
		}
		if p.cfg.importPref != 0 {
			attrs.LocalPref = p.cfg.importPref
		} else if attrs.LocalPref == 0 {
			attrs.LocalPref = 100
		}
		p.adjIn[n.Masked()] = attrs
	}
	s.decide()
}

// better implements the decision process: highest LocalPref, shortest AS
// path, lowest MED, eBGP over iBGP, lowest peer name for determinism.
func better(a, b Route) bool {
	if a.Attrs.LocalPref != b.Attrs.LocalPref {
		return a.Attrs.LocalPref > b.Attrs.LocalPref
	}
	if len(a.Attrs.ASPath) != len(b.Attrs.ASPath) {
		return len(a.Attrs.ASPath) < len(b.Attrs.ASPath)
	}
	if a.Attrs.MED != b.Attrs.MED {
		return a.Attrs.MED < b.Attrs.MED
	}
	if (a.From == "") != (b.From == "") {
		return a.From == "" // local origination wins
	}
	return a.From < b.From
}

// decide recomputes the Loc-RIB and propagates changes.
func (s *Speaker) decide() {
	newRIB := make(map[netip.Prefix]Route)
	consider := func(r Route) {
		cur, ok := newRIB[r.Prefix]
		if !ok || better(r, cur) {
			newRIB[r.Prefix] = r
		}
	}
	for p, attrs := range s.originated {
		consider(Route{Prefix: p, Attrs: attrs})
	}
	for name, pr := range s.peers {
		if pr.state != "Established" {
			continue
		}
		for p, attrs := range pr.adjIn {
			consider(Route{Prefix: p, Attrs: attrs, From: name})
		}
	}
	old := s.locRIB
	s.locRIB = newRIB
	// Export deltas to peers.
	for _, pr := range s.peers {
		if pr.state == "Established" {
			s.advertiseDelta(pr, old, newRIB)
		}
	}
	// FEA hook.
	if s.onRoutes != nil {
		var routes []fib.Route
		for p, r := range newRIB {
			if r.From == "" {
				continue // local blocks are connected, not BGP routes
			}
			routes = append(routes, fib.Route{Prefix: p, NextHop: r.Attrs.NextHop,
				Metric: uint32(len(r.Attrs.ASPath))})
		}
		sort.Slice(routes, func(i, j int) bool {
			return routes[i].Prefix.String() < routes[j].Prefix.String()
		})
		s.onRoutes(routes)
	}
}

// exportable applies peer policy plus the iBGP rule (routes learned from
// an iBGP peer are not re-advertised to other iBGP peers).
func (s *Speaker) exportable(pr *peer, r Route) bool {
	if r.From == pr.cfg.Name {
		return false // split horizon
	}
	if r.From != "" && !s.peers[r.From].cfg.EBGP && !pr.cfg.EBGP {
		return false // iBGP reflection requires a route reflector
	}
	if pr.cfg.exportFilter != nil && !pr.cfg.exportFilter(r.Prefix, r.Attrs) {
		return false
	}
	return true
}

func (s *Speaker) exportAttrs(pr *peer, r Route) PathAttrs {
	attrs := r.Attrs
	if pr.cfg.EBGP {
		attrs.ASPath = append([]uint32{s.cfg.ASN}, attrs.ASPath...)
		if s.cfg.NextHopSelf.IsValid() {
			attrs.NextHop = s.cfg.NextHopSelf
		}
		attrs.LocalPref = 0 // not propagated across AS boundaries
	}
	return attrs
}

func (s *Speaker) advertiseAll(pr *peer) {
	for _, r := range s.sortedRIB() {
		if !s.exportable(pr, r) {
			continue
		}
		pr.advertised[r.Prefix] = true
		pr.conn.Send(marshalUpdate(updateMsg{NLRI: []netip.Prefix{r.Prefix},
			Attrs: s.exportAttrs(pr, r)}))
	}
}

func (s *Speaker) advertiseDelta(pr *peer, old, new_ map[netip.Prefix]Route) {
	// Withdrawals: previously advertised, now gone or unexportable.
	for p := range pr.advertised {
		r, ok := new_[p]
		if ok && s.exportable(pr, r) {
			continue
		}
		delete(pr.advertised, p)
		pr.conn.Send(marshalUpdate(updateMsg{Withdrawn: []netip.Prefix{p}}))
	}
	// Announcements: new or changed best routes.
	for _, r := range sortRoutes(new_) {
		if !s.exportable(pr, r) {
			continue
		}
		if o, ok := old[r.Prefix]; ok && pr.advertised[r.Prefix] && samePath(o, r) {
			continue
		}
		pr.advertised[r.Prefix] = true
		pr.conn.Send(marshalUpdate(updateMsg{NLRI: []netip.Prefix{r.Prefix},
			Attrs: s.exportAttrs(pr, r)}))
	}
}

func samePath(a, b Route) bool {
	if a.From != b.From || a.Attrs.NextHop != b.Attrs.NextHop ||
		a.Attrs.LocalPref != b.Attrs.LocalPref || len(a.Attrs.ASPath) != len(b.Attrs.ASPath) {
		return false
	}
	for i := range a.Attrs.ASPath {
		if a.Attrs.ASPath[i] != b.Attrs.ASPath[i] {
			return false
		}
	}
	return true
}

func (s *Speaker) sortedRIB() []Route { return sortRoutes(s.locRIB) }

func sortRoutes(m map[netip.Prefix]Route) []Route {
	out := make([]Route, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Prefix.String() < out[j].Prefix.String()
	})
	return out
}

// LocRIB returns the current best routes, sorted.
func (s *Speaker) LocRIB() []Route { return s.sortedRIB() }
