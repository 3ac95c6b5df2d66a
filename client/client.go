// Package client is the MigratoryData client SDK: the client-side logic the
// paper describes in §3 and §5.2.3. A Client connects to one server chosen
// from a hard-coded list (optionally weighted), subscribes to topics,
// receives ordered notifications, and publishes with at-least-once
// semantics. On connection failure it blacklists the server, backs off, and
// reconnects to another server, resuming every subscription from the last
// received (epoch, seq) so missed messages are recovered from the server's
// history cache — the subscriber never observes loss, only (possibly)
// duplicates, which an optional reception filter removes.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"migratorydata/internal/backoff"
	"migratorydata/internal/dedup"
	"migratorydata/internal/protocol"
	"migratorydata/internal/transport"
)

// Client errors.
var (
	ErrClosed         = errors.New("client: closed")
	ErrPublishTimeout = errors.New("client: publication not acknowledged")
	ErrNoServers      = errors.New("client: no servers configured")
)

// Notification is one received message.
type Notification struct {
	Topic     string
	Payload   []byte
	Epoch     uint32
	Seq       uint64
	ID        string
	Timestamp int64 // publisher's send time (UnixNano)
	// Retransmitted marks messages replayed from the history cache during
	// recovery rather than delivered live.
	Retransmitted bool
	// Conflated marks aggregates produced by server-side conflation.
	Conflated bool
}

// Config parametrizes a Client.
type Config struct {
	// Servers is the hard-coded server list (paper §5.1). Required.
	Servers []string
	// Weights optionally biases server selection for heterogeneous
	// deployments (§5.1 footnote 1). len(Weights) must equal len(Servers)
	// when non-nil.
	Weights []float64
	// Network is the transport network: "tcp" (default) or "inproc".
	Network string
	// Mode selects the framing: "ws" (default, WebSocket) or "raw".
	Mode string
	// ClientID names this client; it prefixes publication IDs. Default:
	// randomly generated.
	ClientID string
	// ReconnectBase/ReconnectMax configure the truncated exponential
	// back-off (§5.2.3). Defaults: 50ms / 2s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// BlacklistTTL is how long a failed server is avoided. Default 5s.
	BlacklistTTL time.Duration
	// DedupWindow is the size of the duplicate-reception filter (§3); 0
	// disables filtering.
	DedupWindow int
	// PublishTimeout bounds one ack wait before the publication is
	// re-sent. Default 2s.
	PublishTimeout time.Duration
	// NotificationBuffer sizes the notification channel. Default 1024.
	NotificationBuffer int
	// KeepAlive, when > 0, sends an application-level PING every interval
	// so dead connections are detected even on quiet topics (§3: the
	// client-side logic "is responsible for detecting disconnections and
	// establishing a new channel").
	KeepAlive time.Duration
	// Dial overrides connection establishment (tests and in-process
	// harnesses). Default: transport.Dial(Network, addr).
	Dial func(network, addr string) (net.Conn, error)
	// Seed fixes randomized choices. Default: random.
	Seed int64
}

// Client is a MigratoryData subscriber/publisher connection manager.
type Client struct {
	cfg       Config
	rng       *rand.Rand
	rngMu     sync.Mutex
	blacklist *backoff.Blacklist
	policy    backoff.Policy
	filter    *dedup.Filter

	notifications chan Notification

	mu        sync.Mutex
	conn      net.Conn
	framed    framed
	positions map[string]protocol.TopicPosition // topic -> last received
	pending   map[string]chan *protocol.Message // publication ID -> ack
	connGen   int
	server    string // currently connected server

	pubSeq   atomic.Uint64
	closed   atomic.Bool
	closeCh  chan struct{}
	wg       sync.WaitGroup
	connects metrics
}

// metrics counts client-side events.
type metrics struct {
	connects   atomic.Int64
	reconnects atomic.Int64
	duplicates atomic.Int64
}

// framed abstracts the client's transport framing.
type framed interface {
	write(frame []byte) error
	// read performs one blocking transport read and hands the protocol
	// bytes it carried to feed, which must copy what it keeps.
	read(feed func([]byte)) error
	close() error
}

// New constructs and starts a Client: the connection manager begins dialing
// immediately.
func New(cfg Config) (*Client, error) {
	if len(cfg.Servers) == 0 {
		return nil, ErrNoServers
	}
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	if cfg.Mode == "" {
		cfg.Mode = "ws"
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = 50 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 2 * time.Second
	}
	if cfg.BlacklistTTL <= 0 {
		cfg.BlacklistTTL = 5 * time.Second
	}
	if cfg.PublishTimeout <= 0 {
		cfg.PublishTimeout = 2 * time.Second
	}
	if cfg.NotificationBuffer <= 0 {
		cfg.NotificationBuffer = 1024
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	if cfg.ClientID == "" {
		cfg.ClientID = fmt.Sprintf("client-%08x", rand.New(rand.NewSource(cfg.Seed)).Uint32())
	}
	if cfg.Dial == nil {
		cfg.Dial = transport.Dial
	}
	c := &Client{
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		blacklist:     backoff.NewBlacklist(cfg.BlacklistTTL),
		policy:        backoff.NewExponential(cfg.ReconnectBase, cfg.ReconnectMax, cfg.Seed+1),
		notifications: make(chan Notification, cfg.NotificationBuffer),
		positions:     make(map[string]protocol.TopicPosition),
		pending:       make(map[string]chan *protocol.Message),
		closeCh:       make(chan struct{}),
	}
	if cfg.DedupWindow > 0 {
		c.filter = dedup.NewFilter(cfg.DedupWindow)
	}
	c.wg.Add(1)
	go c.sessionLoop()
	return c, nil
}

// Notifications returns the channel of received messages. The channel is
// closed when the client closes.
func (c *Client) Notifications() <-chan Notification { return c.notifications }

// ClientID reports the configured client identifier.
func (c *Client) ClientID() string { return c.cfg.ClientID }

// ConnectedServer reports the currently connected server ("" while
// reconnecting).
func (c *Client) ConnectedServer() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.server
}

// Reconnects reports how many times the client re-established its
// connection after the initial connect.
func (c *Client) Reconnects() int64 { return c.connects.reconnects.Load() }

// DuplicatesFiltered reports how many duplicate receptions the filter
// dropped.
func (c *Client) DuplicatesFiltered() int64 { return c.connects.duplicates.Load() }

// Subscribe registers the topics and (when connected) subscribes on the
// server. Subscriptions persist across reconnections, resuming from the
// last received position per topic.
func (c *Client) Subscribe(topics ...string) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.mu.Lock()
	var positions []protocol.TopicPosition
	for _, t := range topics {
		if _, ok := c.positions[t]; !ok {
			c.positions[t] = protocol.TopicPosition{Topic: t}
		}
		positions = append(positions, c.positions[t])
	}
	f := c.framed
	c.mu.Unlock()
	if f == nil {
		return nil // will subscribe on connect
	}
	return f.write(protocol.Encode(&protocol.Message{
		Kind: protocol.KindSubscribe, Topics: positions,
	}))
}

// SubscribeFrom subscribes to topic resuming after position (epoch, seq):
// the server replays every newer message from its history cache before
// live delivery continues. Applications use this to survive full restarts
// by persisting the last received Notification's (Epoch, Seq) themselves;
// for transient disconnections the client resumes automatically.
func (c *Client) SubscribeFrom(topic string, epoch uint32, seq uint64) error {
	if c.closed.Load() {
		return ErrClosed
	}
	pos := protocol.TopicPosition{Topic: topic, Epoch: epoch, Seq: seq}
	c.mu.Lock()
	c.positions[topic] = pos
	f := c.framed
	c.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.write(protocol.Encode(&protocol.Message{
		Kind: protocol.KindSubscribe, Topics: []protocol.TopicPosition{pos},
	}))
}

// Position reports the last received (epoch, seq) for a subscribed topic —
// what an application persists to resume with SubscribeFrom after a
// restart.
func (c *Client) Position(topic string) (epoch uint32, seq uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tp, ok := c.positions[topic]
	return tp.Epoch, tp.Seq, ok
}

// Publish sends payload to topic with at-least-once semantics: it waits for
// the server acknowledgement and re-sends the publication (same ID) until
// acknowledged or ctx expires (§3: "otherwise, the publisher must re-send
// the publication").
func (c *Client) Publish(ctx context.Context, topic string, payload []byte) error {
	if c.closed.Load() {
		return ErrClosed
	}
	id := fmt.Sprintf("%s:%d", c.cfg.ClientID, c.pubSeq.Add(1))
	m := &protocol.Message{
		Kind: protocol.KindPublish, Topic: topic, ID: id,
		Payload: payload, Flags: protocol.FlagAckRequired,
	}
	for {
		err := c.publishOnce(ctx, m)
		if err == nil {
			return nil
		}
		if c.closed.Load() {
			return ErrClosed
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %v", ErrPublishTimeout, ctx.Err())
		case <-c.closeCh:
			return ErrClosed
		case <-time.After(10 * time.Millisecond):
			// republish
		}
	}
}

// publishOnce sends the publication and waits for one ack.
func (c *Client) publishOnce(ctx context.Context, m *protocol.Message) error {
	ackCh := make(chan *protocol.Message, 1)
	c.mu.Lock()
	c.pending[m.ID] = ackCh
	f := c.framed
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, m.ID)
		c.mu.Unlock()
	}()
	if f == nil {
		return errors.New("client: not connected")
	}
	m.Timestamp = time.Now().UnixNano()
	if err := f.write(protocol.Encode(m)); err != nil {
		return err
	}
	t := time.NewTimer(c.cfg.PublishTimeout)
	defer t.Stop()
	select {
	case ack := <-ackCh:
		if ack.Status != protocol.StatusOK {
			return fmt.Errorf("client: publication rejected (status %d)", ack.Status)
		}
		return nil
	case <-t.C:
		return ErrPublishTimeout
	case <-ctx.Done():
		return ctx.Err()
	case <-c.closeCh:
		return ErrClosed
	}
}

// PublishAsync sends payload with at-most-once semantics (no ack, QoS 0).
func (c *Client) PublishAsync(topic string, payload []byte) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.mu.Lock()
	f := c.framed
	c.mu.Unlock()
	if f == nil {
		return errors.New("client: not connected")
	}
	id := fmt.Sprintf("%s:%d", c.cfg.ClientID, c.pubSeq.Add(1))
	return f.write(protocol.Encode(&protocol.Message{
		Kind: protocol.KindPublish, Topic: topic, ID: id,
		Payload: payload, Timestamp: time.Now().UnixNano(),
	}))
}

// Close tears the client down.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.closeCh)
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	close(c.notifications)
	return nil
}
