package spec_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"icfp/internal/spec"
)

// TestNoTimedInstructionsIsFinite pins the zero-instruction guard of
// every model: with the trace no longer than the Table 1 warmup
// (150k instructions) nothing is timed, and each model must return a
// Result whose every field is finite — so it marshals to JSON, crosses
// the dist protocol and lands in a result store — instead of dividing
// by zero instructions. The workload is the README's fuzz example.
func TestNoTimedInstructionsIsFinite(t *testing.T) {
	var w spec.Workload
	if err := json.Unmarshal([]byte(`{"fuzz":{"seed":102,"sb_pressure":85},"n":60000}`), &w); err != nil {
		t.Fatal(err)
	}
	if cfg, _ := (spec.Machine{Model: spec.ModelInOrder}).Config(); w.N > cfg.WarmupInsts {
		t.Fatalf("workload of %d instructions outlasts the %d-instruction warmup; the test needs n <= warmup", w.N, cfg.WarmupInsts)
	}
	trace := w.New()
	for _, model := range spec.Models {
		t.Run(model, func(t *testing.T) {
			r, err := spec.Machine{Model: model}.New()
			if err != nil {
				t.Fatal(err)
			}
			res := r.Run(trace)
			if bad := nonFinite(reflect.ValueOf(res), "Result"); bad != "" {
				t.Errorf("%s is not finite: %+v", bad, res)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("json.Marshal: %v", err)
			}
		})
	}
}

// nonFinite returns the path of the first NaN or infinite float inside
// v, or "" when every float is finite.
func nonFinite(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if bad := nonFinite(v.Field(i), path+"."+v.Type().Field(i).Name); bad != "" {
				return bad
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if bad := nonFinite(v.Index(i), path); bad != "" {
				return bad
			}
		}
	}
	return ""
}
