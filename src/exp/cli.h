#pragma once

// Command-line front end of the experiment engine.
//
// exp_main() implements the `mmptcp_exp` binary: list, describe, filter
// and run registered experiments with a parallel multi-seed sweep.

namespace mmptcp::exp {

/// The `mmptcp_exp` tool: --list | --describe <name> | --run <filter>,
/// with --jobs, --seeds, --set axis=v1,v2 and the common scale flags.
int exp_main(int argc, char** argv);

}  // namespace mmptcp::exp
