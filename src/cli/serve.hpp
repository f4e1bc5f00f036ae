// The snapshot/serve commands of the odtn CLI (split out of
// commands.cpp: they pull in the snapshot codec, the query engine and
// POSIX socket plumbing that no other command needs).
//
//   odtn snapshot <trace> <out.odtns>   parse + index once, write the
//                                       mmap-able binary snapshot
//   odtn serve --snapshot <file>        answer line-delimited query
//                                       batches over stdin, a file
//                                       (--input) or a unix socket
//                                       (--socket PATH [--once])
//   odtn tail <feed>                    live-ingest a growing trace feed
//                                       ('-' = stdin; --follow polls a
//                                       file like tail -f) and print a
//                                       diameter/CDF row per committed
//                                       epoch (--epoch N contacts)
//
// Serve protocol (one query per line; a blank line or EOF flushes the
// pending batch; batches run concurrently on the thread pool; a final
// line without a trailing newline is still a complete query):
//   cdf <src> [t_lo t_hi]      per-source delay CDF (unbounded hops)
//   diameter <eps> [t_lo t_hi] all-pairs (1-eps)-diameter
//   reach <src> <t>            nodes reachable from src at time t
//   journey <src> <dst>        fastest/shortest journey optima
//   stats                      cache counters (a barrier: it sees
//                              every earlier line of its batch and
//                              none of the later ones)
//   ingest <u> <v> <b> <e>     append one contact to the served graph
//                              (canonical order against history; runs
//                              alone: the pending batch is answered on
//                              the pre-ingest graph first, and the
//                              graph epoch in every cache key makes
//                              pre-ingest partials unreachable)
//   quit                       finish after the current batch
// Every response is one line carrying `us=<latency>` plus, for cached
// query kinds, `hit=`/`hits=` counters; numeric payloads print with
// %.17g so repeated batches can be diffed bit-exactly (strip us= first).
#pragma once

#include <cstdio>

#include "cli/args.hpp"

namespace odtn {
class QueryEngine;
}

namespace odtn::cli {

int cmd_snapshot(ArgList args);
int cmd_serve(ArgList args);
int cmd_tail(ArgList args);

/// The serve protocol loop: reads query lines from `in_fd` as they
/// arrive, executes each batch (delimited by a blank line, "quit" or
/// EOF) concurrently on the shared pool and writes its responses to
/// `out` in submission order, flushed before the next read -- so a
/// client on a pipe or socket gets each batch's replies without closing
/// its end. A final line without a trailing newline is still a complete
/// query. `ingest` lines are sequencing points: the pending batch is
/// answered on the pre-ingest graph, then the append runs alone. A
/// `stats` line is a barrier within its batch: the lines before it
/// finish first, the lines after it start only once it answered. Does
/// not close `in_fd`.
void serve_stream(QueryEngine& engine, int in_fd, std::FILE* out);

}  // namespace odtn::cli
