package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestFaultGolden replays the recorded E11 calls and requires every
// FaultResult to match the recording field for field. The recording
// covers the nbtables and nbreport shapes at several seeds plus
// ftree(2+7,4) up to k = 4, where every class switch has failed: the
// naive remap cannot be built and the spares run out.
func TestFaultGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/fault_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		N, R, Spares, Trials int
		Seed                 int64
		Result               *FaultResult
	}
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty recording")
	}
	for _, rec := range recs {
		got, err := Fault(rec.N, rec.R, rec.Spares, rec.Trials, rec.Seed)
		if err != nil {
			t.Fatalf("Fault(%d,%d,%d,%d,%d): %v", rec.N, rec.R, rec.Spares, rec.Trials, rec.Seed, err)
		}
		if !reflect.DeepEqual(got, rec.Result) {
			t.Errorf("Fault(%d,%d,%d,%d,%d) = %+v, recorded %+v",
				rec.N, rec.R, rec.Spares, rec.Trials, rec.Seed, got, rec.Result)
		}
	}
}
