package pipeline_test

import (
	"reflect"
	"runtime"
	"testing"

	"drapid/internal/synth"
)

// TestPrepareIndependentOfWorkers: Prepare's fan-out joins in input order,
// so one goroutine and four give DeepEqual output.
func TestPrepareIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := goldenSurvey(synth.PALFA(), 11, 6)
	runtime.GOMAXPROCS(4)
	four := goldenSurvey(synth.PALFA(), 11, 6)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("Prepare under GOMAXPROCS 1 and 4 differ:\n%s\n%s", prepareDigest(one), prepareDigest(four))
	}
}
