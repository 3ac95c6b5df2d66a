package migratorydata_test

import (
	"os"
	"testing"

	"migratorydata/internal/loadgen"
)

// TestMain lets TestScenarioLibraryGreen run the kill-and-resume scenario: the
// scenario re-execs this test binary as its durable server child, and
// RunServerProcessIfRequested takes the process over (never returning)
// when the handshake env var is set.
func TestMain(m *testing.M) {
	loadgen.RunServerProcessIfRequested()
	os.Exit(m.Run())
}
