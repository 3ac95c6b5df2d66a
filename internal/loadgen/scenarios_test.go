package loadgen

import (
	"strings"
	"testing"
	"time"
)

// reducedOpts is the CI-scale configuration: small fleets, short windows,
// fixed seed. The full-scale shapes run in TestScenarioLibraryGreen (root);
// these runs prove the degradation assertions hold under the race
// detector on shared runners.
func reducedOpts() ScenarioOptions {
	return ScenarioOptions{
		Scale:   0.2,
		Warmup:  300 * time.Millisecond,
		Measure: 1500 * time.Millisecond,
		Seed:    1,
	}
}

func runScenarioGreen(t *testing.T, name string) ScenarioReport {
	t.Helper()
	rep, err := RunScenarioByName(name, reducedOpts())
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	if !rep.Green() {
		t.Fatalf("scenario %s violated its degradation thresholds:\n  %s",
			name, strings.Join(rep.Violations, "\n  "))
	}
	return rep
}

// TestScenarioFlashCrowd is the flash-crowd regression at reduced scale:
// the whole fleet subscribes to one hot topic at the window open, and the
// burst must not drop, fence, or gap anyone.
func TestScenarioFlashCrowd(t *testing.T) {
	rep := runScenarioGreen(t, "flash-crowd")
	if rep.WindowReceived < rep.Thresholds.MinDelivered {
		t.Fatalf("flash-crowd delivered %d in the window, want >= %d",
			rep.WindowReceived, rep.Thresholds.MinDelivered)
	}
}

// TestScenarioReconnectStorm is the reconnect-storm regression at reduced
// scale: half the fleet drops at the window open and every dropped
// subscriber must resume with position, leaving zero reliable gaps.
func TestScenarioReconnectStorm(t *testing.T) {
	rep := runScenarioGreen(t, "reconnect-storm")
	if rep.Reconnects == 0 {
		t.Fatal("reconnect-storm recorded zero reconnects; the storm never happened")
	}
	if rep.Gaps != 0 {
		t.Fatalf("reconnect-storm opened %d reliable gaps through resume", rep.Gaps)
	}
}

// TestScenarioReconnectStormTCP runs the same storm over real loopback
// sockets: every drop and re-dial churns a file descriptor through
// kernel-poller registration (register, wake on ready, unregister on
// close), so under the race detector this doubles as the
// fd-registration-churn regression for the netpoll read path.
func TestScenarioReconnectStormTCP(t *testing.T) {
	opts := reducedOpts()
	opts.Transport = "tcp"
	rep, err := RunScenarioByName("reconnect-storm", opts)
	if err != nil {
		t.Fatalf("reconnect-storm over tcp: %v", err)
	}
	if !rep.Green() {
		t.Fatalf("reconnect-storm over tcp violated its degradation thresholds:\n  %s",
			strings.Join(rep.Violations, "\n  "))
	}
	if rep.Reconnects == 0 {
		t.Fatal("reconnect-storm over tcp recorded zero reconnects; no descriptors churned")
	}
	if rep.Gaps != 0 {
		t.Fatalf("reconnect-storm over tcp opened %d reliable gaps through resume", rep.Gaps)
	}
}

// TestScenarioKillAndResume is the crash-recovery regression at reduced
// scale: a real durable server process is SIGKILLed mid-traffic and
// restarted over the same data directory; the whole fleet must reconnect,
// resume with position, and observe zero reliable gaps across the crash.
func TestScenarioKillAndResume(t *testing.T) {
	rep := runScenarioGreen(t, "kill-and-resume")
	if rep.Reconnects == 0 {
		t.Fatal("kill-and-resume recorded zero reconnects; the crash never happened")
	}
	if rep.Gaps != 0 {
		t.Fatalf("kill-and-resume opened %d reliable gaps across the crash", rep.Gaps)
	}
}

// TestScenarioLibraryComplete pins the library's composition: six named
// scenarios, each with a description and a MinDelivered floor so no
// scenario can pass vacuously, and reliable gaps bounded at zero
// everywhere — the delivery guarantee admits no loss on reliable feeds,
// whatever the traffic shape.
func TestScenarioLibraryComplete(t *testing.T) {
	want := []string{"diurnal-ramp", "flash-crowd", "reconnect-storm", "churn-mobile", "mixed-feeds", "kill-and-resume"}
	lib := Scenarios()
	if len(lib) != len(want) {
		t.Fatalf("library has %d scenarios, want %d", len(lib), len(want))
	}
	for i, s := range lib {
		if s.Name != want[i] {
			t.Errorf("scenario %d is %q, want %q", i, s.Name, want[i])
		}
		if s.Description == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
		if s.Thresholds.MinDelivered <= 0 {
			t.Errorf("scenario %q has no MinDelivered floor; it could pass vacuously", s.Name)
		}
		if s.Thresholds.MaxReliableGaps != 0 {
			t.Errorf("scenario %q tolerates %d reliable gaps; the guarantee is zero",
				s.Name, s.Thresholds.MaxReliableGaps)
		}
		if s.run == nil {
			t.Errorf("scenario %q has no run function", s.Name)
		}
	}
	if _, err := RunScenarioByName("no-such-shape", ScenarioOptions{}); err == nil {
		t.Error("RunScenarioByName accepted an unknown scenario name")
	}
}
