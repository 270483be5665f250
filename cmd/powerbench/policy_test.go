package main

import (
	"strings"
	"testing"

	"powerchief/internal/replay"
)

// TestPolicyHelpNamesResolve: every name the -policy help lists — the
// registered table — drives a DES run under that policy, instead of failing
// as an unknown policy.
func TestPolicyHelpNamesResolve(t *testing.T) {
	for _, name := range replay.PolicyNames() {
		o := desOptions()
		o.policy = name
		code, out := captured(t, func() int {
			if err := run(o); err != nil {
				t.Errorf("-policy %s: %v", name, err)
				return 1
			}
			return 0
		})
		if code != 0 || !strings.Contains(out, "control["+name+" ") {
			t.Errorf("-policy %s exited %d without a control line\n%s", name, code, out)
		}
	}
}
