#pragma once

#include <string>
#include <vector>

namespace uavdc::lint {

/// One rule violation at a specific source location.
struct Finding {
    std::string file;     ///< Path as given to the linter.
    int line{0};          ///< 1-based line number.
    std::string id;       ///< Stable rule id, e.g. "UL001".
    std::string rule;     ///< Rule slug, e.g. "no-raw-assert".
    std::string message;  ///< Human-readable explanation.
};

/// Static description of a lint rule (for --list-rules and docs).
struct RuleInfo {
    std::string id;
    std::string rule;
    std::string description;
};

/// All rules the linter enforces, in id order.
const std::vector<RuleInfo>& rules();

/// A source line split into its code and comment parts. String and character
/// literal contents in `code` are blanked so token scans cannot match text
/// inside literals; `comment` holds the text of // and /* */ comments on the
/// line (used for NOLINT suppressions); `raw` is the comment-free source
/// with literal contents preserved (used to recover #include targets).
struct ScannedLine {
    std::string code;
    std::string comment;
    std::string raw;
};

/// Split file contents into per-line code/comment views (see ScannedLine).
std::vector<ScannedLine> scan_lines(const std::string& contents);

/// Resolves NOLINT suppression for rule `slug` at `line_idx` (0-based):
/// same-line NOLINT(...), NOLINTNEXTLINE(...) in the comment block above,
/// or an enclosing NOLINTBEGIN/END block. Returns 0 = none, 1 = suppressed
/// with a reason (honour it), 2 = suppression without the required
/// ': reason' (report, but explain the rejection). Exposed so graph-level
/// passes (UL011) can honour suppressions at their anchor site.
int suppression_for(const std::vector<ScannedLine>& lines,
                    std::size_t line_idx, const std::string& slug);

/// Lint one file's contents. `path` determines which path-scoped rules apply
/// (library-only rules fire under src/, the unordered-iteration rule only in
/// planner result paths) and is echoed into findings.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& contents);

/// Lint a file on disk. Missing/unreadable files yield a single finding.
std::vector<Finding> lint_file(const std::string& path);

/// Every .hpp/.h/.cpp/.cc file under the given roots, recursively, skipping
/// build directories and hidden directories. Directory entries are visited
/// in sorted order and the final list is sorted, so the result is
/// byte-identical across runs and filesystems.
std::vector<std::string> discover_files(const std::vector<std::string>& roots);

/// "file:line: [UL00X no-raw-assert] message" — one line per finding.
std::string to_string(const Finding& f);

}  // namespace uavdc::lint
