package modelcheck

import "testing"

// TestFootprintsMatchModels pins the name pairing between the
// spec-generated footprints and the model registry: every footprint
// belongs to a registered model and every model has at least one spec
// feeding it. hydralint's spec engine checks the *contents* (atomic
// words, sched tags) against the code; this test checks the index.
func TestFootprintsMatchModels(t *testing.T) {
	models := map[string]bool{}
	for _, m := range Models() {
		models[m.Name] = true
	}
	declared := map[string]bool{}
	for _, fp := range Footprints() {
		if fp.Model == "" {
			t.Errorf("footprint with empty Model name (packages %v)", fp.Packages)
			continue
		}
		if declared[fp.Model] {
			t.Errorf("duplicate footprint for model %q", fp.Model)
		}
		declared[fp.Model] = true
		if !models[fp.Model] {
			t.Errorf("footprint %q does not match any registered model", fp.Model)
		}
		if len(fp.Packages) == 0 {
			t.Errorf("footprint %q covers no packages", fp.Model)
		}
	}
	for name := range models {
		if !declared[name] {
			t.Errorf("model %q has no footprint; no protocolspec.Spec names it as its Model", name)
		}
	}
}
