// Package cliutil holds the transport-security flag plumbing shared by
// the fleet CLIs (cmd/expd, cmd/expq), so the TLS/token flag vocabulary
// lives in exactly one place.
package cliutil

import (
	"flag"

	"icfp/internal/dist"
)

// SecurityFlags registers the transport-security flags every TCP
// endpoint of the fleet shares — -tls-cert/-tls-key (accepting side),
// -tls-ca/-tls-server-name (dialing side), -token (both) — and returns
// the Security they populate. The zero state (no flags set) is
// plaintext for loopback and tests; docs/OPERATIONS.md is the runbook
// for everything else.
func SecurityFlags(fs *flag.FlagSet) *dist.Security {
	sec := &dist.Security{}
	fs.StringVar(&sec.CertFile, "tls-cert", "", "PEM certificate presented to dialing peers (with -tls-key, enables TLS on the listener)")
	fs.StringVar(&sec.KeyFile, "tls-key", "", "PEM private key for -tls-cert")
	fs.StringVar(&sec.CAFile, "tls-ca", "", "PEM bundle to verify the dialed peer against (enables TLS on outbound connections)")
	fs.StringVar(&sec.ServerName, "tls-server-name", "", "hostname to verify against the peer certificate (default: the dialed host)")
	fs.StringVar(&sec.Token, "token", "", "shared fleet secret; dialers prove it before any protocol frame is processed")
	return sec
}
