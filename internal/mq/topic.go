// Package mq implements the publish/subscribe message bus Stampede places
// between log producers and consumers (the paper's §IV-C, where RabbitMQ
// carries NetLogger events). It provides AMQP-style *topic* routing over
// the hierarchical event name: patterns are dot-separated words where '*'
// matches exactly one word and '#' matches zero or more words, so
// "stampede.job.#" receives every job event and "stampede.*.start" every
// start event one level down.
//
// The Broker is in-process; Server/Client add a line-oriented TCP
// transport so engines run as processes apart from the node that loads
// and serves their events (nl-load -listen), as the paper's engines
// publish to a RabbitMQ host the loader consumes from.
package mq

import "strings"

func splitTopic(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ".")
}

// matchWords matches pattern words p against key words k. '#' may match
// zero or more words, which makes this a small backtracking matcher; in
// practice patterns contain at most one '#'.
func matchWords(p, k []string) bool {
	for len(p) > 0 {
		switch p[0] {
		case "#":
			if len(p) == 1 {
				return true
			}
			for i := 0; i <= len(k); i++ {
				if matchWords(p[1:], k[i:]) {
					return true
				}
			}
			return false
		case "*":
			if len(k) == 0 {
				return false
			}
			p, k = p[1:], k[1:]
		default:
			if len(k) == 0 || p[0] != k[0] {
				return false
			}
			p, k = p[1:], k[1:]
		}
	}
	return len(k) == 0
}
