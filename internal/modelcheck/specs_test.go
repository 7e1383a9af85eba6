package modelcheck

import "testing"

// TestSpecsDeclareKnownModels pins that every spec's Model matches a
// registered model, so a renamed model cannot silently detach its spec.
func TestSpecsDeclareKnownModels(t *testing.T) {
	known := map[string]bool{}
	for _, m := range Models() {
		known[m.Name] = true
	}
	for _, s := range Specs() {
		if s.Name == "" {
			t.Errorf("spec with model %q has no Name", s.Model)
		}
		if s.Model != "" && !known[s.Model] {
			t.Errorf("spec %s feeds model %q, which Models() does not register", s.Name, s.Model)
		}
	}
}
