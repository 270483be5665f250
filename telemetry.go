package powerchief

import (
	"powerchief/internal/core"
	"powerchief/internal/telemetry"
)

// AuditLog is a bounded ring of Command Center decision events: the audit
// trail of the observability layer (see internal/telemetry and DESIGN.md
// §5d).
type AuditLog = telemetry.AuditLog

// AttachAudit attaches an audit log to a policy, reporting whether the
// policy supports auditing (baseline/static policies do not). Scenario.Audit
// does this automatically for harness runs; this helper serves callers
// driving a policy by hand (e.g. against a live cluster or a dist center).
func AttachAudit(p Policy, a *AuditLog) bool {
	if as, ok := p.(core.AuditSetter); ok {
		as.SetAudit(a)
		return true
	}
	return false
}
