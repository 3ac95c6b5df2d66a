// Conflation demonstrates the two I/O-reduction techniques of paper §4 on
// a high-frequency price ticker. Two servers carry the same 200-updates-
// per-second feed: one delivers every update, the other conflates to one
// aggregated update per 100 ms interval per topic — the client sees the
// latest price at a fraction of the notification (and I/O) rate, which is
// what lets MigratoryData scale vertically on high-frequency use cases. It
// checks itself, and CI runs it: it exits 1 unless the conflating server
// delivered fewer notifications than the plain one, with the same last
// price.
//
//	go run ./examples/conflation
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"migratorydata/client"
	"migratorydata/server"
)

func main() {
	plain := server.New(server.Config{
		ID: "plain", ListenNetwork: "inproc", ListenAddr: "conflation-plain",
	})
	conflated := server.New(server.Config{
		ID: "conflated", ListenNetwork: "inproc", ListenAddr: "conflation-on",
		ConflationInterval: 100 * time.Millisecond,
		BatchMaxDelay:      5 * time.Millisecond,
		BatchMaxBytes:      16 << 10,
	})
	for _, s := range []*server.Server{plain, conflated} {
		if err := s.Start(); err != nil {
			log.Fatal(err)
		}
		defer s.Close()
	}

	subPlain := mustClient("conflation-plain")
	defer subPlain.Close()
	subPlain.Subscribe("price/ACME")
	subConf := mustClient("conflation-on")
	defer subConf.Close()
	subConf.Subscribe("price/ACME")
	time.Sleep(100 * time.Millisecond)

	pubPlain := mustClient("conflation-plain")
	defer pubPlain.Close()
	pubConf := mustClient("conflation-on")
	defer pubConf.Close()

	// Blast the same 200/s tick stream at both servers for two seconds.
	fmt.Println("publishing ~200 price updates/s to both servers for 2s...")
	price := 100.0
	rng := rand.New(rand.NewSource(1))
	deadline := time.Now().Add(2 * time.Second)
	published := 0
	for time.Now().Before(deadline) {
		price += rng.Float64() - 0.5
		tick := []byte(fmt.Sprintf("%.2f", price))
		pubPlain.PublishAsync("price/ACME", tick)
		pubConf.PublishAsync("price/ACME", tick)
		published++
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // let the tails drain

	nPlain, lastPlain := drainCount(subPlain)
	nConf, lastConf := drainCount(subConf)
	fmt.Printf("\npublished:          %5d updates\n", published)
	fmt.Printf("plain server:       %5d notifications (every update), last price %s\n", nPlain, lastPlain)
	fmt.Printf("conflating server:  %5d notifications (~10/s aggregates),  last price %s\n", nConf, lastConf)
	if nConf == 0 || nConf >= nPlain || lastConf != lastPlain {
		log.Fatalf("conflation check failed: %d notifications against %d, last price %q against %q",
			nConf, nPlain, lastConf, lastPlain)
	}
	fmt.Printf("\nconflation reduced client notifications by %.0fx while preserving the latest value\n",
		float64(nPlain)/float64(nConf))
}

func mustClient(addr string) *client.Client {
	c, err := client.New(client.Config{Servers: []string{addr}, Network: "inproc"})
	if err != nil {
		log.Fatal(err)
	}
	return c
}

// drainCount empties a client's notification channel, returning the count
// and the last payload.
func drainCount(c *client.Client) (int, string) {
	n := 0
	last := ""
	for {
		select {
		case notif := <-c.Notifications():
			n++
			last = string(notif.Payload)
		case <-time.After(200 * time.Millisecond):
			return n, last
		}
	}
}
