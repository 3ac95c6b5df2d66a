package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"migratorydata/internal/bufpool"
	"migratorydata/internal/cache"
	"migratorydata/internal/core"
	"migratorydata/internal/netpoll"
	"migratorydata/internal/protocol"
	"migratorydata/internal/queue"
	"migratorydata/internal/websocket"
)

// layerDef names one per-layer metric. Layers are the repo's modules; the
// README maps each to the end-to-end metric it should move.
type layerDef struct {
	name   string
	unit   string
	better string
}

// layerDefs is the per-layer list of BENCHMARK.json, in report order.
var layerDefs = []layerDef{
	{"protocol.decode_ns_per_msg", "ns", "lower"},
	{"protocol.decode_allocs_per_msg", "count", "lower"},
	{"protocol.encode_ns_per_msg", "ns", "lower"},
	{"websocket.write_ns_per_frame", "ns", "lower"},
	{"websocket.deframe_ns_per_msg", "ns", "lower"},
	{"websocket.handshake_us", "us", "lower"},
	{"netpoll.wake_to_read_us", "us", "lower"},
	{"netpoll.add_del_us", "us", "lower"},
	{"queue.push_pop_ns_per_op", "ns", "lower"},
	{"queue.pushall_ns_per_batch", "ns", "lower"},
	{"cache.append_next_ns_per_op", "ns", "lower"},
	{"cache.group_lock_acqs_per_op", "count", "lower"},
	{"cache.append_since_ns_per_entry", "ns", "lower"},
	{"cache.bytes_per_entry", "B", "lower"},
	{"core.publish_nosub_ns_per_msg", "ns", "lower"},
	{"core.publish_onesub_ns_per_msg", "ns", "lower"},
	{"core.deliver_ns_per_subscriber", "ns", "lower"},
	{"core.attach_us_per_conn", "us", "lower"},
	{"core.stats_scrape_us", "us", "lower"},
	{"core.fanout_events_per_publish", "count", "lower"},
	{"core.io_flushes_per_delivery", "count", "lower"},
	{"core.io_bytes_per_flush", "B", "higher"},
	{"core.deliver_routed_per_publish", "count", "lower"},
	{"core.retransmitted_per_resume", "count", "lower"},
	{"core.pressure_drops", "count", "lower"},
	{"core.pressure_disconnects", "count", "lower"},
	{"core.egress_queue_bytes_max", "B", "lower"},
	{"cluster.cross_member_delivery_us", "us", "lower"},
	{"cluster.payloads_forwarded_per_publish", "count", "lower"},
	{"cluster.replicated_per_publish", "count", "lower"},
	{"cluster.failover_recover_ms", "ms", "lower"},
	{"server.connect_to_suback_us", "us", "lower"},
	{"server.cpu_us_per_msg_saturated", "us", "lower"},
	{"core.unattributed_latency_us", "us", "lower"},
	// Beyond ISSUE 12's thirty-three: the generator's own behaviour, the
	// tracing overhead, and the end-to-end metrics the driver does not gate
	// (one workload only, or too noisy on this box).
	{"trace_overhead_ratio", "ratio", "lower"},
	{"generator.lag_p50_us", "us", "lower"},
	{"generator.lag_p99_us", "us", "lower"},
	{"delivery.p99_us", "us", "lower"},
	{"publish_ack.p99_us", "us", "lower"},
	{"resume.catchup_p50_ms", "ms", "lower"},
	{"resume.catchup_p99_ms", "ms", "lower"},
}

func layerUnit(name string) string {
	for _, d := range layerDefs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: unknown layer metric " + name)
}

// replayMessages is how many messages of the workload's seeded stream the
// layer replay pushes through each layer; replaySpanned of them are also
// recorded span by span.
const (
	replayMessages = 4096
	replaySpanned  = 256
	replayRounds   = 5
)

// perOp times fn (which performs ops operations) replayRounds times and
// returns the median nanoseconds per operation.
func perOp(ops int, fn func()) float64 {
	rounds := make([]float64, replayRounds)
	for i := range rounds {
		t0 := time.Now()
		fn()
		rounds[i] = float64(time.Since(t0)) / float64(ops)
	}
	return median(rounds)
}

// modeConn is a net.Conn whose writes can be diverted: captured into a
// buffer (to obtain the exact bytes a websocket.Conn puts on the wire) or
// discarded (to time a frame write without a socket behind it).
type modeConn struct {
	net.Conn
	mode    int // passThrough (zero value), captureWrites or discardWrites
	capture []byte
}

const (
	passThrough = iota
	captureWrites
	discardWrites
)

func (c *modeConn) Write(p []byte) (int, error) {
	switch c.mode {
	case captureWrites:
		c.capture = append(c.capture, p...)
		return len(p), nil
	case discardWrites:
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// wsPair performs the client and server handshakes over an in-memory pipe
// and returns both ends.
func wsPair() (cli *websocket.Conn, cliNC *modeConn, srv *websocket.Conn, srvNC *modeConn, err error) {
	a, b := net.Pipe()
	cliNC, srvNC = &modeConn{Conn: a}, &modeConn{Conn: b}
	done := make(chan error, 1)
	go func() {
		var herr error
		srv, herr = websocket.ServerHandshake(srvNC)
		done <- herr
	}()
	cli, err = websocket.ClientHandshake(cliNC, "replay", "/")
	if herr := <-done; err == nil {
		err = herr
	}
	if err != nil {
		a.Close()
		b.Close()
	}
	return cli, cliNC, srv, srvNC, err
}

// replay is the prepared input of the layer replay: the workload's seeded
// message stream in every form a layer consumes.
type replay struct {
	topics   []string
	groups   []int
	topicOf  []int    // message i → topic index
	payloads [][]byte // message i's payload
	pubFrame [][]byte // message i as an encoded PUBLISH frame
	wsFrame  [][]byte // the same inside a masked client WebSocket frame (ws only)
	notify   [][]byte // message i as an encoded NOTIFY frame
}

func newReplay(w *workload, seed int64) (*replay, error) {
	ref := newRefStream(seed)
	rp := &replay{}
	groupOf := cache.New(engineTopicGroups, engineCacheCapacity)
	for t := 0; t < w.topics; t++ {
		rp.topics = append(rp.topics, w.topicName(t))
		rp.groups = append(rp.groups, groupOf.GroupOf(rp.topics[t]))
	}
	var cli *websocket.Conn
	var cliNC *modeConn
	if w.framing == "ws" {
		var err error
		var srvNC *modeConn
		if cli, cliNC, _, srvNC, err = wsPair(); err != nil {
			return nil, err
		}
		defer cliNC.Conn.Close()
		defer srvNC.Conn.Close()
		cliNC.mode = captureWrites
	}
	next := make([]uint64, w.topics)
	for i := 0; i < replayMessages; i++ {
		t := i % w.topics
		p := make([]byte, w.payload)
		ref.fill(p, uint32(t), next[t])
		next[t]++
		pub := protocol.Encode(&protocol.Message{
			Kind: protocol.KindPublish, Topic: rp.topics[t], ID: fmt.Sprint(i),
			Payload: p, Flags: protocol.FlagAckRequired, Timestamp: int64(i + 1),
		})
		rp.topicOf = append(rp.topicOf, t)
		rp.payloads = append(rp.payloads, p)
		rp.pubFrame = append(rp.pubFrame, pub)
		rp.notify = append(rp.notify, protocol.Encode(&protocol.Message{
			Kind: protocol.KindNotify, Topic: rp.topics[t], ID: fmt.Sprint(i),
			Payload: p, Epoch: 1, Seq: next[t], Timestamp: int64(i + 1),
		}))
		if cli != nil {
			cliNC.capture = nil
			if err := cli.WriteMessage(websocket.OpBinary, pub); err != nil {
				return nil, err
			}
			rp.wsFrame = append(rp.wsFrame, cliNC.capture)
		}
	}
	return rp, nil
}

// layerReplay pushes the workload's seeded message stream through each
// layer's public functions, from outside the program: first in bulk (the
// per-layer timing metrics), then message by message in pipeline order with
// one span per call, parented to the message's span (the trace file).
func layerReplay(w *workload, seed int64, tr *tracer) (map[string]float64, error) {
	if !netpoll.Supported() {
		return nil, errors.New("netpoll unsupported")
	}
	rp, err := newReplay(w, seed)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	out := map[string]float64{}
	n := replayMessages

	// protocol: the pooled stream decoder, fed the server's chunk size.
	var wire []byte
	for _, f := range rp.pubFrame {
		wire = append(wire, f...)
	}
	decodeAll := func() {
		dec := protocol.StreamDecoder{PoolPayloads: true, PoolMessages: true}
		for off := 0; off < len(wire); off += bufpool.ClassSize {
			dec.Feed(wire[off:min(off+bufpool.ClassSize, len(wire))])
			for {
				m, err := dec.Next()
				if err != nil || m == nil {
					break
				}
				protocol.ReleaseMessage(m)
			}
		}
	}
	out["protocol.decode_ns_per_msg"] = perOp(n, decodeAll)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	decodeAll()
	runtime.ReadMemStats(&ms1)
	out["protocol.decode_allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)

	notifyMsgs := make([]protocol.Message, n)
	for i := range notifyMsgs {
		notifyMsgs[i] = protocol.Message{
			Kind: protocol.KindNotify, Topic: rp.topics[rp.topicOf[i]], ID: "id",
			Payload: rp.payloads[i], Epoch: 1, Seq: uint64(i + 1), Timestamp: int64(i + 1),
		}
	}
	var encBuf []byte
	out["protocol.encode_ns_per_msg"] = perOp(n, func() {
		for i := range notifyMsgs {
			encBuf = protocol.AppendEncode(encBuf[:0], &notifyMsgs[i])
		}
	})

	// websocket: only where the workload's connections speak it.
	var srvWS *websocket.Conn
	var sr *websocket.StreamReader
	emit := func([]byte) {}
	if w.framing == "ws" {
		_, cliNC, srv, srvNC, err := wsPair()
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		defer cliNC.Conn.Close()
		defer srvNC.Conn.Close()
		srvNC.mode = discardWrites
		srvWS = srv
		out["websocket.write_ns_per_frame"] = perOp(n, func() {
			for _, f := range rp.notify {
				_ = srv.WriteMessage(websocket.OpBinary, f)
			}
		})
		var wsWire []byte
		for _, f := range rp.wsFrame {
			wsWire = append(wsWire, f...)
		}
		scratch := make([]byte, bufpool.ClassSize)
		sr = srv.NewStreamReader(func(k int) []byte {
			if cap(scratch) < k {
				scratch = make([]byte, k)
			}
			return scratch[:k]
		})
		var ferr error
		out["websocket.deframe_ns_per_msg"] = perOp(n, func() {
			for off := 0; off < len(wsWire); off += bufpool.ClassSize {
				if err := sr.Feed(wsWire[off:min(off+bufpool.ClassSize, len(wsWire))], emit); err != nil {
					ferr = err
				}
			}
		})
		if ferr != nil {
			return nil, fmt.Errorf("layer replay: deframe: %w", ferr)
		}
		shakes := make([]float64, 64)
		for i := range shakes {
			t0 := time.Now()
			_, a, _, b, err := wsPair()
			shakes[i] = float64(time.Since(t0)) / 1e3
			if err != nil {
				return nil, fmt.Errorf("layer replay: handshake: %w", err)
			}
			a.Conn.Close()
			b.Conn.Close()
		}
		out["websocket.handshake_us"] = median(shakes)
	}

	// queue: the MPSC hops between ioThreads and workers.
	q := queue.NewMPSC[int]()
	pushPop := func(i int) {
		q.Push(i)
		if b, ok := q.TryPop(); ok {
			q.Recycle(b)
		}
	}
	out["queue.push_pop_ns_per_op"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			pushPop(i)
		}
	})
	batch := []int{1, 2, 3, 4}
	pushAll := func() {
		q.PushAll(batch)
		if b, ok := q.TryPop(); ok {
			q.Recycle(b)
		}
	}
	out["queue.pushall_ns_per_batch"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			pushAll()
		}
	})

	// cache: sequencing appends over the workload's topic distribution, and
	// the replay read a resume pays.
	ch := cache.New(engineTopicGroups, engineCacheCapacity)
	appendNext := func(i int) {
		t := rp.topicOf[i]
		ch.AppendNext(rp.groups[t], rp.topics[t], cache.Entry{ID: "id", Epoch: 1, Timestamp: int64(i + 1), Payload: rp.payloads[i]})
	}
	before := ch.MemStats()
	out["cache.append_next_ns_per_op"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			appendNext(i)
		}
	})
	after := ch.MemStats()
	out["cache.group_lock_acqs_per_op"] = float64(after.GroupLockAcquisitions-before.GroupLockAcquisitions) / float64(after.Appends-before.Appends)
	out["cache.bytes_per_entry"] = float64(after.Bytes()) / float64(after.Entries)
	hot := cache.New(engineTopicGroups, engineCacheCapacity)
	hg := hot.GroupOf(rp.topics[0])
	for i := 0; i < engineCacheCapacity; i++ {
		hot.AppendNext(hg, rp.topics[0], cache.Entry{ID: "id", Epoch: 1, Payload: rp.payloads[0]})
	}
	const resumeDepth = 50
	var since []cache.Entry
	out["cache.append_since_ns_per_entry"] = perOp(1000*resumeDepth, func() {
		for i := 0; i < 1000; i++ {
			since = hot.AppendSinceGroup(since[:0], hg, rp.topics[0], 1, engineCacheCapacity-resumeDepth, 0)
		}
	})
	if len(since) != resumeDepth {
		return nil, fmt.Errorf("layer replay: AppendSinceGroup returned %d entries, want %d", len(since), resumeDepth)
	}

	if err := replayNetpoll(out); err != nil {
		return nil, fmt.Errorf("layer replay: netpoll: %w", err)
	}
	if err := replayCore(w, rp, out); err != nil {
		return nil, fmt.Errorf("layer replay: core: %w", err)
	}

	// The outside-in trace: one span per layer call, in pipeline order,
	// parented to the message's span.
	if tr != nil {
		dec := protocol.StreamDecoder{PoolPayloads: true, PoolMessages: true}
		for i := 0; i < replaySpanned; i++ {
			msg := uint64(1)<<62 | uint64(i)
			root := tr.id()
			t0 := nowNs()
			call := func(name string, fn func()) {
				s := nowNs()
				fn()
				tr.add(name, s, nowNs(), tr.id(), root, msg)
			}
			if sr != nil {
				call("websocket.deframe", func() { _ = sr.Feed(rp.wsFrame[i], emit) })
			}
			call("protocol.decode", func() {
				dec.Feed(rp.pubFrame[i])
				if m, _ := dec.Next(); m != nil {
					protocol.ReleaseMessage(m)
				}
			})
			call("queue.push_pop", func() { pushPop(i) })
			call("cache.append_next", func() { appendNext(i) })
			call("protocol.encode", func() { encBuf = protocol.AppendEncode(encBuf[:0], &notifyMsgs[i]) })
			call("queue.pushall", pushAll)
			if srvWS != nil {
				call("websocket.write", func() { _ = srvWS.WriteMessage(websocket.OpBinary, rp.notify[i]) })
			}
			tr.add("replay.msg", t0, nowNs(), root, 0, msg)
		}
	}
	return out, nil
}

// replayNetpoll times the readiness path on a real loopback socket: peer
// write → Wait returns → ReadConn done; and one Add+Del registration cycle.
func replayNetpoll(out map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer cli.Close()
	srv, err := ln.Accept()
	if err != nil {
		return err
	}
	defer srv.Close()
	rc, err := srv.(syscall.Conn).SyscallConn()
	if err != nil {
		return err
	}
	p, err := netpoll.New()
	if err != nil {
		return err
	}
	if err := p.Add(rc, 7); err != nil {
		p.Close()
		return err
	}
	readAt := make(chan int64) // unbuffered: one wake-up in flight at a time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(readAt)
		evs := make([]netpoll.Event, 8)
		buf := make([]byte, bufpool.ClassSize)
		for {
			k, _, err := p.Wait(evs)
			if err != nil {
				return
			}
			for i := 0; i < k; i++ {
				if got, _, _ := netpoll.ReadConn(rc, buf); got > 0 {
					readAt <- nowNs()
				}
			}
		}
	}()
	msg := make([]byte, 140)
	const wakes = 2000
	us := make([]float64, 0, wakes)
	for i := 0; i < wakes; i++ {
		t0 := nowNs()
		if _, err := cli.Write(msg); err != nil {
			break
		}
		at, ok := <-readAt
		if !ok {
			break
		}
		us = append(us, float64(at-t0)/1e3)
	}
	p.Close()
	wg.Wait()
	if len(us) < wakes {
		return fmt.Errorf("only %d of %d wake-ups observed", len(us), wakes)
	}
	out["netpoll.wake_to_read_us"] = median(us)

	p2, err := netpoll.New()
	if err != nil {
		return err
	}
	var aerr error
	out["netpoll.add_del_us"] = perOp(1000, func() {
		for i := 0; i < 1000; i++ {
			if err := p2.Add(rc, 9); err != nil {
				aerr = err
			}
			if err := p2.Del(rc); err != nil {
				aerr = err
			}
		}
	}) / 1e3
	// A Poller releases its descriptors in Wait: give it one to return from.
	p2.Close()
	_, _, _ = p2.Wait(make([]netpoll.Event, 1))
	return aerr
}

// replaySub is one loopback-attached subscriber of the replay engine.
type replaySub struct {
	c   *clientConn
	got atomic.Int64
}

// replayCore drives a private engine of the benchmark's fixed shape over
// loopback sockets through the public functions of core: Publish with no
// and with one subscriber, Deliver to 64, and Attach → SUBACK.
func replayCore(w *workload, rp *replay, out map[string]float64) error {
	e := core.New(core.Config{
		ServerID: "replay", IoThreads: engineIoThreads, Workers: engineWorkers,
		TopicGroups: engineTopicGroups, CacheCapacity: engineCacheCapacity,
	})
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go e.Serve(ln, w.framing) // returns when e.Close closes the listener

	const fan = 64
	var readers sync.WaitGroup
	var subs []*replaySub
	defer func() {
		for _, s := range subs {
			s.c.close()
		}
		readers.Wait()
	}()
	attach := func(topic string) (*replaySub, error) {
		c, err := dialClient(ln.Addr().String(), w.framing)
		if err != nil {
			return nil, err
		}
		s := &replaySub{c: c}
		subs = append(subs, s)
		acked := false
		handle := func(m *protocol.Message) {
			switch m.Kind {
			case protocol.KindSubAck:
				acked = true
			case protocol.KindNotify:
				s.got.Add(1)
			}
		}
		if err := c.sendFrames(subscribeFrames(nil, "replay", topic, 0, 0)); err != nil {
			return nil, err
		}
		if err := c.readUntil(handle, func() bool { return acked }); err != nil {
			return nil, err
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for c.read(handle) == nil {
			}
		}()
		return s, nil
	}
	one, err := attach("replay/one")
	if err != nil {
		return err
	}
	var fanSubs []*replaySub
	for i := 0; i < fan; i++ {
		s, err := attach("replay/fan")
		if err != nil {
			return err
		}
		fanSubs = append(fanSubs, s)
	}
	waitFor := func(cond func() bool) error {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return errors.New("replay engine did not deliver in time")
			}
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}

	// Publish in bursts small enough that the subscriber's egress budget is
	// never in play; only the Publish calls are timed.
	publish := func(topic string, sub *replaySub) (float64, error) {
		const burst, bursts = 256, 32
		var spent time.Duration
		sent := int64(0)
		for b := 0; b < bursts; b++ {
			t0 := time.Now()
			for i := 0; i < burst; i++ {
				m := protocol.AcquireMessage()
				m.Kind = protocol.KindPublish
				m.Topic = topic
				m.ID = "id"
				m.Payload = rp.payloads[(b*burst+i)%len(rp.payloads)]
				m.Timestamp = 1
				e.Publish(m)
			}
			spent += time.Since(t0)
			sent += burst
			if sub != nil {
				if err := waitFor(func() bool { return sub.got.Load() >= sent }); err != nil {
					return 0, err
				}
			}
		}
		return float64(spent) / float64(sent), nil
	}
	if out["core.publish_nosub_ns_per_msg"], err = publish("replay/none", nil); err != nil {
		return err
	}
	if out["core.publish_onesub_ns_per_msg"], err = publish("replay/one", one); err != nil {
		return err
	}

	// Deliver: wall time until all 64 subscribers hold the burst.
	const dBurst, dBursts = 16, 64
	var spent time.Duration
	seq := uint64(0)
	for b := 0; b < dBursts; b++ {
		want := int64((b + 1) * dBurst)
		t0 := time.Now()
		for i := 0; i < dBurst; i++ {
			seq++
			e.Deliver("replay/fan", cache.Entry{ID: "id", Epoch: 1, Seq: seq, Timestamp: 1, Payload: rp.payloads[i]})
		}
		if err := waitFor(func() bool {
			for _, s := range fanSubs {
				if s.got.Load() < want {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		spent += time.Since(t0)
	}
	out["core.deliver_ns_per_subscriber"] = float64(spent) / float64(dBurst*dBursts*fan)

	// Attach → SUBACK on an established raw socket pair (no accept, no
	// handshake: those are server.connect_to_suback_us and the ws layer).
	pairLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer pairLn.Close()
	attachUs := make([]float64, 0, fan)
	sub := subscribeFrames(nil, "attach", "replay/attach", 0, 0)
	for i := 0; i < fan; i++ {
		cnc, err := net.Dial("tcp", pairLn.Addr().String())
		if err != nil {
			return err
		}
		snc, err := pairLn.Accept()
		if err != nil {
			cnc.Close()
			return err
		}
		c := &clientConn{nc: cnc, rbuf: make([]byte, bufpool.ClassSize)}
		acked := false
		t0 := time.Now()
		if _, err = e.Attach(core.NewRawFramed(snc)); err == nil {
			err = c.sendFrames(sub)
		}
		if err == nil {
			err = c.readUntil(func(m *protocol.Message) { acked = acked || m.Kind == protocol.KindSubAck }, func() bool { return acked })
		}
		attachUs = append(attachUs, float64(time.Since(t0))/1e3)
		cnc.Close()
		if err != nil {
			snc.Close()
			return err
		}
	}
	out["core.attach_us_per_conn"] = median(attachUs)
	return nil
}

// computeLayers fills res.Layers for a traced run: counter deltas fetched
// from the child, figures the generator measured on the live run, and the
// layer replay.
func computeLayers(w *workload, res *runResult, tr *tracer) error {
	res.Layers = map[string]metricValue{}
	set := func(name string, v float64) { res.Layers[name] = metricValue{Value: v, Unit: layerUnit(name)} }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	b, a, f := sums(res.paced.before), sums(res.paced.after), sums(res.final)
	pubs := a.published - b.published
	set("core.fanout_events_per_publish", ratio(a.fanoutEvents-b.fanoutEvents, pubs))
	// Every publish is acknowledged, so a flush carries a NOTIFY or a PUBACK.
	set("core.io_flushes_per_delivery", ratio(a.flushes-b.flushes, (a.delivered-b.delivered)+(a.retransmitted-b.retransmitted)+pubs))
	set("core.io_bytes_per_flush", ratio(a.flushBytes-b.flushBytes, a.flushes-b.flushes))
	set("core.deliver_routed_per_publish", ratio(a.routed-b.routed, pubs))
	if n := int64(res.Timings["resume_catchup_ms"].Samples); n > 0 {
		set("core.retransmitted_per_resume", ratio(a.retransmitted-b.retransmitted, n))
		set("resume.catchup_p50_ms", res.Metrics["resume_catchup_p50_ms"].Value)
		set("resume.catchup_p99_ms", res.Metrics["resume_catchup_p99_ms"].Value)
	} else {
		set("core.retransmitted_per_resume", 0)
	}
	set("core.pressure_drops", float64(f.drops))
	set("core.pressure_disconnects", float64(f.disconnects))
	var egressMax int64
	var scrapeUs []float64
	for _, st := range res.scrapes {
		for _, e := range st.Engines {
			egressMax = max(egressMax, e.EgressQueueBytes)
		}
		scrapeUs = append(scrapeUs, st.ScrapeUs)
	}
	set("core.egress_queue_bytes_max", float64(egressMax))
	set("core.stats_scrape_us", median(scrapeUs))
	set("server.connect_to_suback_us", median(res.connectUs))
	set("server.cpu_us_per_msg_saturated", res.satCPUus)
	set("trace_overhead_ratio", res.traceRatio)
	set("generator.lag_p50_us", res.Generator.LagP50us)
	set("generator.lag_p99_us", res.Generator.LagP99us)
	set("delivery.p99_us", res.Metrics["delivery_p99_us"].Value)
	set("publish_ack.p99_us", res.Metrics["publish_ack_p99_us"].Value)
	if w.members > 1 {
		set("cluster.payloads_forwarded_per_publish", ratio(a.payloads-b.payloads, pubs))
		set("cluster.replicated_per_publish", ratio(a.replicated-b.replicated, pubs))
		set("cluster.failover_recover_ms", res.recoverMs)
		if len(res.memberP50) == w.members {
			// Publisher sits on member 0: a subscriber there is same-member.
			set("cluster.cross_member_delivery_us", res.memberP50[w.members-1]-res.memberP50[0])
		}
	}

	timed, err := layerReplay(w, res.Seed, tr)
	if err != nil {
		return err
	}
	for name, v := range timed {
		set(name, v)
	}

	// What the layers do not explain: the delivery median minus the self
	// times along one message's path — queueing, syscalls, descheduling.
	path := timed["netpoll.wake_to_read_us"]
	self := selfTimes(tr.recorded())
	for _, name := range []string{"websocket.deframe", "protocol.decode", "queue.push_pop", "cache.append_next", "protocol.encode", "queue.pushall", "websocket.write"} {
		if s := self[name]; len(s) > 0 {
			path += median(s) / 1e3
		}
	}
	set("core.unattributed_latency_us", res.Metrics["delivery_p50_us"].Value-path)
	return nil
}
