// Package cliutil holds the fleet plumbing shared by the TCP CLIs
// (cmd/expd, cmd/expq): the role-scoped transport-security flags, so the
// TLS/token flag vocabulary lives in exactly one place, and the loop
// that admits dialing workers.
package cliutil

import (
	"flag"
	"log/slog"
	"net"

	"icfp/internal/dist"
	"icfp/internal/obs"
)

// AcceptFlags registers the security flags of an accepting endpoint
// (the expd coordinator, expq) — -tls-cert/-tls-key and -token — and
// returns the Security they populate. The zero state (no flags set) is
// plaintext for loopback and tests; docs/OPERATIONS.md is the runbook
// for everything else.
func AcceptFlags(fs *flag.FlagSet) *dist.Security {
	sec := &dist.Security{}
	fs.StringVar(&sec.CertFile, "tls-cert", "", "PEM certificate presented to dialing peers (with -tls-key, enables TLS on the listener)")
	fs.StringVar(&sec.KeyFile, "tls-key", "", "PEM private key for -tls-cert")
	tokenFlag(fs, sec)
	return sec
}

// DialFlags registers the security flags of a dialing endpoint (expd
// join) — -tls-ca/-tls-server-name and -token — and returns the
// Security they populate.
func DialFlags(fs *flag.FlagSet) *dist.Security {
	sec := &dist.Security{}
	fs.StringVar(&sec.CAFile, "tls-ca", "", "PEM bundle to verify the dialed peer against (enables TLS on outbound connections)")
	fs.StringVar(&sec.ServerName, "tls-server-name", "", "hostname to verify against the peer certificate (default: the dialed host)")
	tokenFlag(fs, sec)
	return sec
}

func tokenFlag(fs *flag.FlagSet, sec *dist.Security) {
	fs.StringVar(&sec.Token, "token", "", "shared fleet secret; dialers prove it before any protocol frame is processed")
}

// AcceptWorkers feeds registering dialers into join until the listener
// closes. Each candidate is authenticated, then its register frame
// validated, off the accept loop so one slow dialer cannot block the
// next. A worker whose handshake finishes after done closes is closed
// instead of parked on a join channel nobody reads again; a nil done
// (a daemon whose fleet is permanent) waits on join forever.
func AcceptWorkers(ln net.Listener, sec dist.Security, join chan<- dist.Worker, done <-chan struct{}, log *slog.Logger) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			peer := c.RemoteAddr().String()
			sc, err := sec.Secure(c)
			if err == nil {
				var w dist.Worker
				if w, err = dist.AcceptWorker(sc, peer); err == nil {
					select {
					case join <- w:
					case <-done:
						w.RW.Close()
					}
					return
				}
			}
			log.Info("rejecting worker", obs.KeyAddr, peer, obs.KeyCause, err)
		}(conn)
	}
}
