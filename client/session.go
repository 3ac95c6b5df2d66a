package client

import (
	"fmt"
	"net"
	"time"

	"migratorydata/internal/hashing"
	"migratorydata/internal/protocol"
	"migratorydata/internal/websocket"
)

// sessionLoop is the connection manager: connect, run, and on failure
// blacklist + back off + reconnect with resume (§5.2.3).
func (c *Client) sessionLoop() {
	defer c.wg.Done()
	attempt := 0
	for !c.closed.Load() {
		server, err := c.pickServer()
		if err != nil {
			return
		}
		if err := c.runSession(server); err != nil && !c.closed.Load() {
			// Add the failed server to the temporary blacklist and retry
			// elsewhere after a truncated exponential back-off.
			c.blacklist.Add(server)
			attempt++
			select {
			case <-time.After(c.policy.Wait(attempt)):
			case <-c.closeCh:
				return
			}
			continue
		}
		if c.closed.Load() {
			return
		}
		attempt = 0
	}
}

// pickServer chooses a non-blacklisted server, weighted if configured.
func (c *Client) pickServer() (string, error) {
	candidates := c.blacklist.Filter(c.cfg.Servers)
	if len(candidates) == 0 {
		return "", ErrNoServers
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.cfg.Weights == nil || len(c.cfg.Weights) != len(c.cfg.Servers) {
		return candidates[c.rng.Intn(len(candidates))], nil
	}
	// Map candidate weights back from the full server list.
	weights := make([]float64, len(candidates))
	for i, srv := range candidates {
		for j, full := range c.cfg.Servers {
			if full == srv {
				weights[i] = c.cfg.Weights[j]
			}
		}
	}
	idx := hashing.WeightedChoice(c.rng, weights)
	if idx < 0 {
		return candidates[0], nil
	}
	return candidates[idx], nil
}

// runSession establishes one connection and pumps it until failure or
// close. A nil return means the client is closing.
func (c *Client) runSession(server string) error {
	conn, err := c.cfg.Dial(c.cfg.Network, server)
	if err != nil {
		return err
	}
	var f framed
	switch c.cfg.Mode {
	case "raw":
		f = newRawClientFramed(conn)
	default:
		ws, err := websocket.ClientHandshake(conn, server, "/")
		if err != nil {
			conn.Close()
			return err
		}
		f = newWSClientFramed(ws)
	}

	// CONNECT / CONNACK, then re-subscribe with resume positions.
	if err := f.write(protocol.Encode(&protocol.Message{
		Kind: protocol.KindConnect, ClientID: c.cfg.ClientID,
	})); err != nil {
		f.close()
		return err
	}

	c.mu.Lock()
	c.conn = conn
	c.framed = f
	c.server = server
	c.connGen++
	var resume []protocol.TopicPosition
	for _, tp := range c.positions {
		resume = append(resume, tp)
	}
	c.mu.Unlock()

	first := c.connects.connects.Add(1) == 1
	if !first {
		c.connects.reconnects.Add(1)
	}

	if len(resume) > 0 {
		if err := f.write(protocol.Encode(&protocol.Message{
			Kind: protocol.KindSubscribe, Topics: resume,
		})); err != nil {
			c.detach(f)
			return err
		}
	}

	if c.cfg.KeepAlive > 0 {
		stopPing := make(chan struct{})
		defer close(stopPing)
		go c.pingLoop(f, stopPing)
	}

	err = c.readPump(f)
	c.detach(f)
	if c.closed.Load() {
		return nil
	}
	return err
}

// pingLoop sends periodic keepalive pings; a write failure closes the
// transport, which fails the read pump and triggers reconnection.
func (c *Client) pingLoop(f framed, stop <-chan struct{}) {
	t := time.NewTicker(c.cfg.KeepAlive)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-c.closeCh:
			return
		case <-t.C:
			if err := f.write(protocol.Encode(&protocol.Message{
				Kind: protocol.KindPing, Timestamp: time.Now().UnixNano(),
			})); err != nil {
				f.close()
				return
			}
		}
	}
}

// detach clears the live connection state.
func (c *Client) detach(f framed) {
	f.close()
	c.mu.Lock()
	if c.framed == f {
		c.framed = nil
		c.conn = nil
		c.server = ""
	}
	c.mu.Unlock()
}

// readPump decodes and dispatches inbound frames until the connection
// fails.
func (c *Client) readPump(f framed) error {
	var dec protocol.StreamDecoder
	for {
		err := f.read(dec.Feed)
		for {
			m, derr := dec.Next()
			if derr != nil {
				return derr
			}
			if m == nil {
				break
			}
			c.dispatch(m)
		}
		if err != nil {
			return err
		}
	}
}

// dispatch routes one inbound message.
func (c *Client) dispatch(m *protocol.Message) {
	switch m.Kind {
	case protocol.KindNotify:
		c.handleNotify(m)
	case protocol.KindPubAck:
		c.mu.Lock()
		ch := c.pending[m.ID]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- m:
			default:
			}
		}
	case protocol.KindConnAck, protocol.KindSubAck, protocol.KindPong:
		// No client action required.
	case protocol.KindDisconnect:
		// Server-initiated disconnect (e.g. partition fencing): the read
		// loop will fail when the transport closes.
	}
}

// handleNotify updates the topic position, filters duplicates, and delivers
// the notification to the application.
func (c *Client) handleNotify(m *protocol.Message) {
	c.mu.Lock()
	tp, tracked := c.positions[m.Topic]
	if tracked {
		if m.Epoch > tp.Epoch || (m.Epoch == tp.Epoch && m.Seq > tp.Seq) {
			c.positions[m.Topic] = protocol.TopicPosition{
				Topic: m.Topic, Epoch: m.Epoch, Seq: m.Seq,
			}
		}
	}
	c.mu.Unlock()

	if c.filter != nil && m.ID != "" {
		if c.filter.Observe(fmt.Sprintf("%s|%s", m.Topic, m.ID)) {
			c.connects.duplicates.Add(1)
			return
		}
	}
	n := Notification{
		Topic:         m.Topic,
		Payload:       m.Payload,
		Epoch:         m.Epoch,
		Seq:           m.Seq,
		ID:            m.ID,
		Timestamp:     m.Timestamp,
		Retransmitted: m.Flags&protocol.FlagRetransmission != 0,
		Conflated:     m.Flags&protocol.FlagConflated != 0,
	}
	select {
	case c.notifications <- n:
	case <-c.closeCh:
	}
}

// rawClientFramed carries protocol frames directly over the connection.
type rawClientFramed struct {
	conn net.Conn
	buf  []byte
}

func newRawClientFramed(conn net.Conn) *rawClientFramed {
	return &rawClientFramed{conn: conn, buf: make([]byte, 8192)}
}

func (r *rawClientFramed) write(frame []byte) error {
	_, err := r.conn.Write(frame)
	return err
}

func (r *rawClientFramed) read(feed func([]byte)) error {
	n, err := r.conn.Read(r.buf)
	if n > 0 {
		feed(r.buf[:n])
	}
	return err
}

func (r *rawClientFramed) close() error { return r.conn.Close() }

// wsClientFramed carries protocol frames inside WebSocket binary messages,
// deframed by the same incremental StreamReader the server uses.
type wsClientFramed struct {
	ws  *websocket.Conn
	sr  *websocket.StreamReader
	buf []byte
}

func newWSClientFramed(ws *websocket.Conn) *wsClientFramed {
	return &wsClientFramed{ws: ws, sr: ws.NewStreamReader(nil), buf: make([]byte, 8192)}
}

func (w *wsClientFramed) write(frame []byte) error {
	return w.ws.WriteMessage(websocket.OpBinary, frame)
}

func (w *wsClientFramed) read(feed func([]byte)) error {
	// What the handshake's buffered reader drew past the HTTP response never
	// shows up on the socket again; after the first call this finds nothing.
	if err := w.sr.FeedBuffered(feed); err != nil {
		return err
	}
	n, err := w.ws.NetConn().Read(w.buf)
	if n > 0 {
		if ferr := w.sr.Feed(w.buf[:n], feed); ferr != nil {
			return ferr
		}
	}
	return err
}

func (w *wsClientFramed) close() error { return w.ws.Close() }
