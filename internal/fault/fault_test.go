package fault

import (
	"errors"
	"fmt"
	"testing"
)

// sentinels is the wire vocabulary: each error with the code that must never
// be renamed, in the order Code resolves them.
var sentinels = []struct {
	err  error
	code string
}{
	{ErrStageDown, "stage-down"},
	{ErrNoHealthyStages, "no-healthy-stages"},
	{ErrNodeDown, "node-down"},
	{ErrNoHealthyNodes, "no-healthy-nodes"},
	{ErrStaleEpoch, "stale-epoch"},
}

func TestCodeRoundTripsEverySentinel(t *testing.T) {
	if len(sentinels) != len(wireCodes) {
		t.Fatalf("test covers %d sentinels, the registry has %d", len(sentinels), len(wireCodes))
	}
	for _, s := range sentinels {
		wrapped := fmt.Errorf("center: submit to QA: %w", s.err)
		for _, err := range []error{s.err, wrapped, fmt.Errorf("retry 2: %w", wrapped)} {
			if got := Code(err); got != s.code {
				t.Errorf("Code(%q) = %q, want %q", err, got, s.code)
			}
		}
		if got := FromCode(s.code); got != s.err {
			t.Errorf("FromCode(%q) = %v, want the %v sentinel itself", s.code, got, s.err)
		}
	}
}

// An error wrapping two sentinels resolves to the one registered first,
// whichever way round it wraps them.
func TestCodeTakesTheFirstRegisteredMatch(t *testing.T) {
	for _, err := range []error{
		fmt.Errorf("%w after %w", ErrStaleEpoch, ErrNodeDown),
		fmt.Errorf("%w after %w", ErrNodeDown, ErrStaleEpoch),
		errors.Join(ErrStaleEpoch, ErrNodeDown),
	} {
		if got := Code(err); got != "node-down" {
			t.Errorf("Code(%q) = %q, want node-down", err, got)
		}
	}
}

func TestUnknownCodesAndErrorsAreTolerated(t *testing.T) {
	for _, code := range []string{"", "stage-up", "STAGE-DOWN", "stage down"} {
		if err := FromCode(code); err != nil {
			t.Errorf("FromCode(%q) = %v, want nil", code, err)
		}
	}
	for _, err := range []error{nil, errors.New("stage down"), fmt.Errorf("lost: %v", ErrStageDown)} {
		if got := Code(err); got != "" {
			t.Errorf("Code(%v) = %q, want none: the error wraps no sentinel", err, got)
		}
	}
}

func TestIsDegraded(t *testing.T) {
	for _, s := range sentinels {
		if !IsDegraded(s.err) || !IsDegraded(fmt.Errorf("epoch 7: %w", s.err)) {
			t.Errorf("IsDegraded(%v) = false, bare or wrapped", s.err)
		}
	}
	for _, err := range []error{nil, errors.New("disk full"), errors.New(ErrNodeDown.Error())} {
		if IsDegraded(err) {
			t.Errorf("IsDegraded(%v) = true", err)
		}
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{
		Healthy: "healthy", Suspect: "suspect", Down: "down", Recovering: "recovering",
		Recovering + 1: "unknown", -1: "unknown",
	} {
		if got := h.String(); got != want {
			t.Errorf("Health(%d).String() = %q, want %q", int(h), got, want)
		}
	}
}
