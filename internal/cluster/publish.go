package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"migratorydata/internal/cache"
	"migratorydata/internal/coord"
	"migratorydata/internal/core"
	"migratorydata/internal/protocol"
)

// fallbackID distinguishes publications whose publisher supplied no message
// ID; uniqueness matters for pending-ack correlation and client-side
// duplicate filtering.
var fallbackID atomic.Uint64

// pendingKey correlates a publication across forward/replicate/ack frames.
func pendingKey(topic, id string) string { return topic + "\x00" + id }

// handlePublish is the engine's PublishFunc in cluster mode (§5.2.2).
func (n *Node) handlePublish(from *core.Client, m *protocol.Message) {
	if m.Topic == "" {
		n.nack(from, m.ID)
		return
	}
	if n.fenced.Load() {
		// A partitioned server cannot guarantee durability; the client
		// should reconnect elsewhere (its connection is being closed).
		if from != nil && m.Flags&protocol.FlagAckRequired != 0 {
			from.Send(&protocol.Message{
				Kind: protocol.KindPubAck, ID: m.ID, Status: protocol.StatusRedirect,
			})
		}
		return
	}
	if m.ID == "" {
		m.ID = fmt.Sprintf("%s#%d", n.id, fallbackID.Add(1))
	}
	g := int32(n.engine.Cache().GroupOf(m.Topic))

	n.mu.Lock()
	epoch, mine := n.coordinated[g]
	ge, known := n.gossip[g]
	n.mu.Unlock()

	if mine {
		n.sequenceAndReplicate(g, epoch, from, "", m)
		return
	}
	if known && ge.Server != n.id {
		n.forwardTo(ge.Server, g, from, m)
		return
	}
	// Coordinator unknown: start an election via a random member (§5.2.1's
	// indirection, "to avoid that a server used as a connection point by a
	// publisher creating many topics becomes overloaded with coordinator
	// responsibilities").
	target := n.randomPeer()
	if target == n.id {
		// The election runs async while the caller may recycle m (decoded
		// client messages are pool-backed): hand the goroutine its own copy.
		mc := *m
		go n.takeoverAndPublish(g, from, "", &mc)
		return
	}
	n.forwardTo(target, g, from, m)
}

// forwardTo sends a publication to (what we believe is) the coordinator's
// server and records the pending ack expectation: the contact server learns
// durability when it receives the replication broadcast (§5.2.2).
func (n *Node) forwardTo(server string, g int32, from *core.Client, m *protocol.Message) {
	if from != nil && m.Flags&protocol.FlagAckRequired != 0 {
		n.mu.Lock()
		n.pendingFwd[pendingKey(m.Topic, m.ID)] = &pendingPub{
			client: from, msgID: m.ID, added: time.Now(),
		}
		n.mu.Unlock()
	}
	fwd := *m
	fwd.Kind = protocol.KindForward
	fwd.ClientID = n.id
	fwd.Group = g
	n.stats.forwarded.Inc()
	if !n.send(server, &fwd) {
		// Peer gone: drop the stale gossip entry and fail the publication;
		// the republish will trigger a fresh election.
		n.mu.Lock()
		if ge, ok := n.gossip[g]; ok && ge.Server == server {
			delete(n.gossip, g)
		}
		delete(n.pendingFwd, pendingKey(m.Topic, m.ID))
		n.mu.Unlock()
		n.nack(from, m.ID)
	}
}

// sequenceAndReplicate is the coordinator path: assign (epoch, seq), store,
// fan out locally, broadcast to the cluster, and arrange the publisher ack
// once AckCopies servers hold the message. from != nil means the publisher
// is a local client of this server; contact != "" means the publication
// was forwarded by a contact server, whose own client is acknowledged
// either by the broadcast's arrival there (degree 2, the paper's protocol)
// or by an explicit KindPubDone once enough replica acks arrive (degree
// > 2, the §5.2 extension).
func (n *Node) sequenceAndReplicate(g int32, epoch uint32, from *core.Client, contact string, m *protocol.Message) {
	c := n.engine.Cache()
	lock := &n.groupLocks[g]
	lock.Lock()
	// Sequencing is a single cache.AppendNext: one group-lock acquisition
	// reads the newest position, assigns the successor (epoch, seq), and
	// stores the entry — the old Position-then-Append shape paid two (plus
	// a topic re-hash each). AppendNext fails exactly when the cache holds
	// a newer epoch than our coordinator role: the role is stale, the
	// publication is failed, and the retry re-routes.
	entry, ok := c.AppendNext(int(g), m.Topic, cache.Entry{
		ID:        m.ID,
		Epoch:     epoch,
		Timestamp: m.Timestamp,
		Payload:   m.Payload,
	})
	if !ok {
		lock.Unlock()
		n.mu.Lock()
		delete(n.coordinated, g)
		n.mu.Unlock()
		n.nack(from, m.ID)
		return
	}
	seq := entry.Seq
	n.stats.localDeliver.Add(int64(n.engine.DeliverGroup(int(g), m.Topic, entry)))
	rep := &protocol.Message{
		Kind:      protocol.KindReplicate,
		ClientID:  n.id,
		Topic:     m.Topic,
		ID:        m.ID,
		Payload:   m.Payload,
		Epoch:     epoch,
		Seq:       seq,
		Group:     g,
		Timestamp: m.Timestamp,
	}
	// Interest-aware tier split: members with subscribers in the group get
	// the full payload, as does the contact server (its copy is what
	// acknowledges the publisher at degree 2). If that tier is smaller than
	// the replication degree requires, uninterested members top it up in
	// fixed peer order — deterministic, so the same members keep complete
	// caches between digest changes. Everyone else receives sequencing
	// metadata only (KindReplicateMeta): reliability is unchanged, but a
	// member with no subscribers in the group pays no payload bandwidth.
	// The classification buffers are per-group scratch reused under the
	// group lock, keeping the sequencing hot path allocation-free.
	scratch := &n.tierScratch[g]
	payloadTo := scratch.payload[:0]
	metaTo := scratch.meta[:0]
	for _, peer := range n.cfg.Peers {
		if peer == n.id {
			continue
		}
		if peer == contact || n.peerWantsPayload(peer, g) {
			payloadTo = append(payloadTo, peer)
		} else {
			metaTo = append(metaTo, peer)
		}
	}
	// metaStart indexes the first non-promoted meta candidate; promotion
	// advances it rather than reslicing metaTo, so the scratch buffers
	// keep their full backing capacity across publications.
	needed := n.cfg.AckCopies - 1 // remote copies beyond the coordinator's
	metaStart := 0
	for len(payloadTo) < needed && metaStart < len(metaTo) {
		payloadTo = append(payloadTo, metaTo[metaStart])
		metaStart++
	}
	// Register the ack expectation BEFORE the first send: replica acks are
	// handled on the inbox goroutine and can arrive before this function
	// returns, and an ack that finds no entry is dropped — the delivered
	// publish would be refused at OpTimeout.
	var pending *pendingPub
	if m.Flags&protocol.FlagAckRequired != 0 {
		switch {
		case from != nil:
			pending = &pendingPub{client: from}
		case contact != "" && n.cfg.AckCopies > 2:
			// Degree > 2: the contact's copy plus the coordinator's are not
			// enough; track replica acks and notify the contact explicitly.
			pending = &pendingPub{contact: contact, epoch: epoch, seq: seq}
		}
	}
	if pending != nil {
		pending.msgID = m.ID
		pending.added = time.Now()
		pending.remaining = needed
		n.mu.Lock()
		n.pendingAck[pendingKey(m.Topic, m.ID)] = pending
		n.mu.Unlock()
	}
	sent := 0
	for i := 0; i < len(payloadTo); i++ {
		if n.send(payloadTo[i], rep) {
			sent++
		} else if sent+(len(payloadTo)-i-1) < needed && metaStart < len(metaTo) {
			// Payload-tier peer unreachable (crashed or partitioned) and
			// the remaining candidates cannot reach the replication degree:
			// promote the next uninterested member so the degree survives
			// dead members.
			payloadTo = append(payloadTo, metaTo[metaStart])
			metaStart++
		}
	}
	n.stats.payloads.Forwarded.Add(int64(sent))
	if metaStart < len(metaTo) {
		meta := &protocol.Message{
			Kind:      protocol.KindReplicateMeta,
			ClientID:  n.id,
			Topic:     m.Topic,
			ID:        m.ID,
			Epoch:     epoch,
			Seq:       seq,
			Group:     g,
			Timestamp: m.Timestamp,
		}
		for _, peer := range metaTo[metaStart:] {
			if n.send(peer, meta) {
				n.stats.payloads.Suppressed.Inc()
			}
		}
	}
	scratch.payload, scratch.meta = payloadTo, metaTo
	lock.Unlock()
	n.stats.replicated.Inc()

	if pending == nil || sent >= needed {
		return
	}
	// Not enough reachable replicas for the configured durability.
	n.mu.Lock()
	delete(n.pendingAck, pendingKey(m.Topic, m.ID))
	n.mu.Unlock()
	switch {
	case from == nil:
		n.send(contact, &protocol.Message{
			Kind: protocol.KindForwardFail, ClientID: n.id,
			Topic: m.Topic, ID: m.ID, Group: g,
		})
	case len(n.cfg.Peers) == 1:
		// A one-node deployment degrades to single-copy durability and
		// acks immediately.
		from.Send(&protocol.Message{
			Kind: protocol.KindPubAck, ID: m.ID,
			Epoch: epoch, Seq: seq, Status: protocol.StatusOK,
		})
	default:
		n.nack(from, m.ID) // the publisher retries
	}
}

// takeoverAndPublish attempts to become coordinator of g (the §5.2.1 race —
// "the necessary write to ZooKeeper can succeed only for a single server")
// and then sequences the pending publication. Exactly one of from (local
// publisher) and contact (forwarding server) is set.
func (n *Node) takeoverAndPublish(g int32, from *core.Client, contact string, m *protocol.Message) {
	epoch, err := n.becomeCoordinator(g)
	if err != nil {
		// Lost the race or no quorum: report back so the publication is
		// failed and republished against fresher gossip (§5.2.2 fn. 3).
		owner, _ := n.coords.Get(groupKey(g))
		if contact != "" {
			fail := &protocol.Message{
				Kind: protocol.KindForwardFail, ClientID: owner,
				Topic: m.Topic, ID: m.ID, Group: g,
			}
			n.send(contact, fail)
		} else {
			n.learnGossip(g, owner, 0)
			n.nack(from, m.ID)
		}
		return
	}
	n.sequenceAndReplicate(g, epoch, from, contact, m)
}

// becomeCoordinator races for the group's ephemeral entry, catches the
// group's history up from peers, and installs the role.
func (n *Node) becomeCoordinator(g int32) (uint32, error) {
	n.mu.Lock()
	if epoch, mine := n.coordinated[g]; mine {
		n.mu.Unlock()
		return epoch, nil
	}
	n.mu.Unlock()
	index, err := n.coords.CreateEphemeral(groupKey(g), n.id)
	if err != nil {
		return 0, err
	}
	epoch := uint32(index)
	// Catch up this group's topics from the cluster before sequencing, so
	// our cache is complete and new sequence numbers extend the history
	// (paper §5.2.2's cache-recovery protocol, applied at takeover). A
	// complete pull from every live peer recovers the union of their
	// prefixes — everything any survivor holds — so the staleness that
	// predates the pull is cleared; a re-mark during the pull (a metadata
	// frame for a message published after the snapshot) carries a fresher
	// stamp and survives.
	n.mu.Lock()
	stamp, wasStale := n.unsynced[g]
	n.mu.Unlock()
	caughtUp := n.catchupGroup(g)
	n.mu.Lock()
	n.coordinated[g] = epoch
	if caughtUp && wasStale && n.unsynced[g] == stamp {
		delete(n.unsynced, g)
	}
	n.mu.Unlock()
	n.stats.takeovers.Inc()
	n.logger.Debug("became coordinator", "group", g, "epoch", epoch)
	// Populate everyone's gossip map (§5.2.1: the winner "broadcasts the
	// information to other servers in order to populate their gossip maps").
	ann := &protocol.Message{
		Kind: protocol.KindGossip, ClientID: n.id, Group: g, Epoch: epoch,
	}
	for _, peer := range n.cfg.Peers {
		if peer != n.id {
			n.send(peer, ann)
		}
	}
	return epoch, nil
}

// learnGossip records a coordinator mapping and arranges the failure watch
// on its entry (§5.2.1: watches tell other servers "that a coordinator for
// a topic group has failed or became unreachable").
func (n *Node) learnGossip(g int32, server string, epoch uint32) {
	if server == "" || server == n.id {
		return
	}
	n.mu.Lock()
	cur, ok := n.gossip[g]
	if ok && cur.Epoch > epoch {
		n.mu.Unlock()
		return // stale gossip
	}
	n.gossip[g] = gossipEntry{Server: server, Epoch: epoch}
	needWatch := n.watched[g] != server
	if needWatch {
		n.watched[g] = server
	}
	n.mu.Unlock()
	if needWatch {
		n.coords.WatchDelete(groupKey(g), func(string) { n.onCoordinatorGone(g, server) })
	}
}

// onCoordinatorGone fires when a coordinator's ephemeral entry disappears:
// drop it from gossip and try to take over (§5.2.1: "other servers that had
// set watches on these assignments attempt to take over the responsibility
// upon this notification, with the guarantee that a single one will
// succeed").
func (n *Node) onCoordinatorGone(g int32, server string) {
	if n.stopped.Load() || n.fenced.Load() {
		return
	}
	n.mu.Lock()
	if cur, ok := n.gossip[g]; ok && cur.Server == server {
		delete(n.gossip, g)
	}
	if n.watched[g] == server {
		delete(n.watched, g)
	}
	n.mu.Unlock()
	if _, err := n.becomeCoordinator(g); err != nil {
		// Someone else won (or we are partitioned): learn the new owner.
		if errors.Is(err, coord.ErrExists) {
			owner, _ := n.coords.Get(groupKey(g))
			n.learnGossip(g, owner, 0)
		}
	}
}

// handlePeer dispatches one cluster-internal frame.
func (n *Node) handlePeer(from string, m *protocol.Message) {
	switch m.Kind {
	case protocol.KindForward:
		n.handleForward(from, m)
	case protocol.KindForwardFail:
		n.handleForwardFail(m)
	case protocol.KindReplicate:
		n.handleReplicate(from, m)
	case protocol.KindReplicateAck:
		n.handleReplicateAck(m)
	case protocol.KindReplicateMeta:
		n.handleReplicateMeta(from, m)
	case protocol.KindInterest:
		n.handleInterest(from, m)
	case protocol.KindInterestDigest:
		n.handleInterestDigest(from, m)
	case protocol.KindGossip:
		n.learnGossip(m.Group, m.ClientID, m.Epoch)
	case protocol.KindCacheRequest:
		n.handleCacheRequest(from, m)
	case protocol.KindCacheResponse:
		n.handleCacheResponse(m)
	case protocol.KindPubDone:
		n.handlePubDone(m)
	default:
		n.logger.Debug("unexpected peer frame", "kind", m.Kind, "from", from)
	}
}

// handleForward processes a publication forwarded by a contact server: if
// we coordinate the group we sequence it; otherwise we run for coordinator
// (this is both the normal forward path and the §5.2.1 random-designate
// election).
func (n *Node) handleForward(from string, m *protocol.Message) {
	// Recompute the group from the topic name rather than trusting the
	// wire-supplied m.Group: every downstream use (the group-lock index,
	// the coordinator map, subscription-aware delivery routing) assumes a
	// locally-derived group, and a peer with a skewed TopicGroups config
	// must not be able to panic the lock lookup or skew delivery.
	g := int32(n.engine.Cache().GroupOf(m.Topic))
	n.mu.Lock()
	epoch, mine := n.coordinated[g]
	n.mu.Unlock()
	pub := *m
	pub.Kind = protocol.KindPublish
	if mine {
		n.sequenceAndReplicate(g, epoch, nil, from, &pub)
		return
	}
	// The election involves a quorum write; do not block the dispatcher.
	go n.takeoverAndPublish(g, nil, from, &pub)
}

// handleForwardFail processes a failed forward: fail the publisher (it will
// republish) and adopt the real owner into gossip (§5.2.2: republication
// "will eventually succeed thanks to an updated gossip map").
func (n *Node) handleForwardFail(m *protocol.Message) {
	n.learnGossip(m.Group, m.ClientID, 0)
	n.mu.Lock()
	p := n.pendingFwd[pendingKey(m.Topic, m.ID)]
	delete(n.pendingFwd, pendingKey(m.Topic, m.ID))
	n.mu.Unlock()
	if p != nil {
		n.nack(p.client, p.msgID)
	}
}

// handleReplicate processes a sequenced publication broadcast by a
// coordinator. While a resync of the topic's group is in flight the frame
// is parked behind it; a frame that arrives for a stale group, or that does
// not contiguously extend the topic's history, triggers a resync from the
// sender (whose cache, as the group's coordinator, is complete). Otherwise
// the frame is applied directly.
func (n *Node) handleReplicate(from string, m *protocol.Message) {
	n.learnGossip(m.Group, m.ClientID, m.Epoch)
	g := int32(n.engine.Cache().GroupOf(m.Topic))
	n.mu.Lock()
	if st := n.resyncing[g]; st != nil {
		st.frames = append(st.frames, PeerFrame{From: from, Msg: m})
		n.mu.Unlock()
		return
	}
	_, stale := n.unsynced[g]
	n.mu.Unlock()
	if !n.applyReplicate(g, from, m, stale) {
		n.startResync(g, from, &PeerFrame{From: from, Msg: m})
	}
}

// applyReplicate stores and fans out one replicated publication, acks it
// back to the coordinator, and — if this server was the publication's
// contact point — acknowledges the publisher: the broadcast's arrival
// proves the message is recorded on at least two servers (§5.2.2). It
// reports false, applying nothing, when the entry does not contiguously
// extend the topic's history (an earlier message is missing — e.g. this
// member just re-entered the payload tier, or an epoch changed hands);
// the caller then resolves the gap with a resync. Duplicates and stale
// entries are acked and dropped (§3 allows duplicates).
//
// groupStale means other topics of the group are known to have suppressed
// history. A frame that contiguously extends this topic's own cached
// prefix is still safe to apply then — per-topic prefixes stay intact —
// which keeps, say, a contact server's forward/ack path out of whole-group
// resyncs that a different topic's suppression would otherwise force. Only
// the empty-topic fast start is ambiguous under staleness (seq 1 of a new
// epoch is indistinguishable from a suppressed-prefix takeover) and defers
// to the resync.
//
// g is the topic's LOCALLY derived group (the callers hash m.Topic
// themselves and never trust the wire-supplied m.Group), shared across the
// position read, the append, and the delivery fan-out so the replication
// apply path hashes the topic once.
func (n *Node) applyReplicate(g int32, from string, m *protocol.Message, groupStale bool) bool {
	epoch, seq, ok := n.engine.Cache().PositionGroup(int(g), m.Topic)
	switch {
	case !ok:
		// No history for the topic: only the very first message of the
		// stream (seq 1, at whatever epoch its coordinator holds) may
		// start it; anything later means the prefix was suppressed.
		if m.Seq != 1 || groupStale {
			return false
		}
	case m.Epoch == epoch:
		if m.Seq > seq+1 {
			return false
		}
		if m.Seq <= seq {
			n.ackReplicate(from, m) // duplicate: stored (or superseded) already
			return true
		}
	case m.Epoch < epoch:
		n.ackReplicate(from, m) // stale epoch: superseded
		return true
	default:
		// Epoch advanced (coordinator takeover): the tail of the previous
		// epoch may contain messages we were never sent. Verify through a
		// catch-up from the new coordinator rather than appending blindly.
		return false
	}

	entry := cache.Entry{
		ID:        m.ID,
		Epoch:     m.Epoch,
		Seq:       m.Seq,
		Timestamp: m.Timestamp,
		Payload:   m.Payload,
	}
	// Replication keeps every payload-tier member's cache complete, but the
	// fan-out below only touches workers with local subscribers for the
	// topic — a member that merely stores the replica pays no delivery
	// cost. g is locally derived from the topic name (never the
	// wire-supplied m.Group, which a buggy peer could skew), so the
	// group-indexed append and fan-out are safe and the hash is paid once.
	if n.engine.Cache().AppendGroup(int(g), m.Topic, entry) {
		n.stats.localDeliver.Add(int64(n.engine.DeliverGroup(int(g), m.Topic, entry)))
	}
	n.ackReplicate(from, m)
	return true
}

// ackReplicate confirms a replica copy to the coordinator and, at the
// paper's replication degree, acknowledges a pending forwarded publication:
// the broadcast's arrival proves two copies exist (coordinator + this
// server). At higher degrees the coordinator sends KindPubDone instead.
func (n *Node) ackReplicate(from string, m *protocol.Message) {
	ack := &protocol.Message{
		Kind: protocol.KindReplicateAck, ClientID: n.id,
		Topic: m.Topic, ID: m.ID, Epoch: m.Epoch, Seq: m.Seq, Group: m.Group,
	}
	n.send(from, ack)

	if n.cfg.AckCopies <= 2 {
		n.mu.Lock()
		p := n.pendingFwd[pendingKey(m.Topic, m.ID)]
		delete(n.pendingFwd, pendingKey(m.Topic, m.ID))
		n.mu.Unlock()
		if p != nil && p.client != nil {
			p.client.Send(&protocol.Message{
				Kind: protocol.KindPubAck, ID: p.msgID,
				Epoch: m.Epoch, Seq: m.Seq, Status: protocol.StatusOK,
			})
		}
	}
}

// handleReplicateMeta processes the interest-filtered replication tier: the
// coordinator advanced the topic's stream but sent us no payload because,
// in its view, no local subscriber needs it. If the view is right, the
// group's cache is now a stale prefix and is flagged so; if it is stale
// gossip (a subscriber appeared here moments ago), the payloads are pulled
// from the coordinator's cache and the digest is re-announced. Meta frames
// are never acknowledged and never appended — the cache must stay a
// contiguous prefix of the stream for resume replay to be sound.
func (n *Node) handleReplicateMeta(from string, m *protocol.Message) {
	n.learnGossip(m.Group, m.ClientID, m.Epoch)
	g := int32(n.engine.Cache().GroupOf(m.Topic))
	n.mu.Lock()
	if st := n.resyncing[g]; st != nil {
		st.frames = append(st.frames, PeerFrame{From: from, Msg: m})
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	if !n.entryIsNews(g, m) {
		return // already hold it (we were in the payload tier for it)
	}
	// Mark stale and, if local subscribers turn out to be waiting (the
	// coordinator's view of us is stale — our interest delta is still in
	// flight), repair its view and catch the payload up from its cache.
	// abortResync marks BEFORE checking for subscribers: a subscriber
	// whose interest transition runs between the two steps observes the
	// mark and starts the repair itself — either side sees the other, so a
	// subscribed member can never sit stale with no resync in flight.
	n.abortResync(g, from)
}

// handleReplicateAck advances a pending publication toward its replication
// degree; when enough copies exist the publisher (local) or contact
// (forwarded) is notified.
func (n *Node) handleReplicateAck(m *protocol.Message) {
	key := pendingKey(m.Topic, m.ID)
	n.mu.Lock()
	p := n.pendingAck[key]
	if p != nil {
		p.remaining--
		if p.remaining > 0 {
			n.mu.Unlock()
			return
		}
		delete(n.pendingAck, key)
	}
	n.mu.Unlock()
	if p == nil {
		return
	}
	switch {
	case p.client != nil:
		p.client.Send(&protocol.Message{
			Kind: protocol.KindPubAck, ID: p.msgID,
			Epoch: m.Epoch, Seq: m.Seq, Status: protocol.StatusOK,
		})
	case p.contact != "":
		n.send(p.contact, &protocol.Message{
			Kind: protocol.KindPubDone, ClientID: n.id,
			Topic: m.Topic, ID: p.msgID, Epoch: p.epoch, Seq: p.seq,
		})
	}
}

// handlePubDone acknowledges a forwarded publication that reached the
// configured replication degree (degree > 2 deployments).
func (n *Node) handlePubDone(m *protocol.Message) {
	n.mu.Lock()
	p := n.pendingFwd[pendingKey(m.Topic, m.ID)]
	delete(n.pendingFwd, pendingKey(m.Topic, m.ID))
	n.mu.Unlock()
	if p != nil && p.client != nil {
		p.client.Send(&protocol.Message{
			Kind: protocol.KindPubAck, ID: p.msgID,
			Epoch: m.Epoch, Seq: m.Seq, Status: protocol.StatusOK,
		})
	}
}

// handleCacheRequest streams the requested group's history (all groups when
// Group == -1) back to the requester, ending with an empty-topic done
// marker carrying the request's correlation ID. The per-topic reads go
// through one reused entry buffer (cache.AppendSinceGroup): a reconnect or
// takeover storm pulling many groups does not allocate a slice per topic.
func (n *Node) handleCacheRequest(from string, m *protocol.Message) {
	c := n.engine.Cache()
	groups := make([]int, 0, 1)
	if m.Group == -1 {
		for g := 0; g < c.NumGroups(); g++ {
			groups = append(groups, g)
		}
	} else {
		groups = append(groups, int(m.Group))
	}
	var entries []cache.Entry
	for _, g := range groups {
		for _, topic := range c.TopicsInGroup(g) {
			entries = c.AppendSinceGroup(entries[:0], g, topic, 0, 0, 0)
			for _, e := range entries {
				resp := &protocol.Message{
					Kind: protocol.KindCacheResponse, ClientID: n.id,
					Topic: topic, ID: e.ID, Payload: e.Payload,
					Epoch: e.Epoch, Seq: e.Seq, Timestamp: e.Timestamp,
					Group: int32(g),
				}
				if !n.send(from, resp) {
					return
				}
			}
		}
	}
	done := &protocol.Message{
		Kind: protocol.KindCacheResponse, ClientID: n.id,
		ID: m.ID, Group: m.Group, Status: protocol.StatusOK,
	}
	n.send(from, done)
}

// handleCacheResponse applies one recovered entry, or completes a catch-up
// wait on the done marker. A successfully appended entry is also fanned out
// locally: during an interest resync the backlog must reach the subscribers
// whose arrival triggered it, and peers stream their history oldest-first,
// so delivery happens in (epoch, seq) order per topic. (In the recovery
// paths that predate interest routing — partition healing, crash restart —
// clients have been closed and the fan-out finds no subscribers.)
func (n *Node) handleCacheResponse(m *protocol.Message) {
	if m.Topic != "" {
		entry := cache.Entry{
			ID: m.ID, Epoch: m.Epoch, Seq: m.Seq,
			Timestamp: m.Timestamp, Payload: m.Payload,
		}
		// One locally-derived hash shared by the append and the fan-out
		// (the wire-supplied m.Group is never trusted for routing).
		g := n.engine.Cache().GroupOf(m.Topic)
		if n.engine.Cache().AppendGroup(g, m.Topic, entry) {
			n.stats.localDeliver.Add(int64(n.engine.DeliverGroup(g, m.Topic, entry)))
		}
		return
	}
	// Done marker: m.ID is the correlation key.
	n.mu.Lock()
	st := n.catchups[m.ID]
	n.mu.Unlock()
	if st != nil && st.remaining.Add(-1) == 0 {
		close(st.done)
	}
}

// catchupCounter makes catch-up correlation IDs unique.
var catchupCounter atomic.Uint64

// catchupGroup synchronously pulls one group's history from all peers. It
// reports whether every reachable peer streamed its history to completion.
func (n *Node) catchupGroup(g int32) bool {
	return n.catchupFrom(n.livePeers(), g)
}

// catchupFromPeer synchronously pulls history from one peer (g == -1 for
// everything).
func (n *Node) catchupFromPeer(peer string, g int32) bool {
	return n.catchupFrom([]string{peer}, g)
}

// catchupFrom requests history for group g from the given peers and waits
// for all done markers. It returns true when every request completed — an
// empty peer list is trivially complete (a single-member cluster has no one
// to ask) — and false on timeout, node shutdown, or when no peer was
// reachable at all.
func (n *Node) catchupFrom(peers []string, g int32) bool {
	if len(peers) == 0 {
		return true
	}
	corr := fmt.Sprintf("catchup-%s-%d", n.id, catchupCounter.Add(1))
	st := &catchupState{done: make(chan struct{})}
	n.mu.Lock()
	n.catchups[corr] = st
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.catchups, corr)
		n.mu.Unlock()
	}()

	sent := int32(0)
	for _, peer := range peers {
		req := &protocol.Message{
			Kind: protocol.KindCacheRequest, ClientID: n.id, ID: corr, Group: g,
		}
		if n.send(peer, req) {
			sent++
		}
	}
	if sent == 0 {
		return false
	}
	st.remaining.Store(sent)
	select {
	case <-st.done:
		return true
	case <-time.After(n.cfg.CatchupTimeout):
		n.logger.Debug("catch-up timed out", "group", g)
		return false
	case <-n.bgStop:
		return false
	}
}

// livePeers lists the other members currently registered on the network.
func (n *Node) livePeers() []string {
	members := n.net.Members()
	out := members[:0]
	for _, id := range members {
		if id != n.id {
			out = append(out, id)
		}
	}
	return out
}
