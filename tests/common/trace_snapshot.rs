//! Timing-sanitized provenance snapshots, shared by every trace golden in
//! `tests/golden_trace/`.
//!
//! Worker assignment and span timings vary run to run; the *content* of a
//! trace (stage sequence, events, decision) must not. [`sanitized`]
//! zeroes the former, [`pretty`] indents a compact JSON export so
//! snapshot diffs read line by line, and [`check`] compares (or, under
//! `UPDATE_GOLDEN=1`, rewrites) one golden file.

use std::path::Path;

use leishen::TxProvenance;

/// `trace` with its worker index and span offsets zeroed.
pub fn sanitized(mut trace: TxProvenance) -> TxProvenance {
    trace.worker = 0;
    for span in &mut trace.spans {
        span.start_ns = 0;
        span.end_ns = 0;
    }
    trace
}

/// Pretty-prints a single-line JSON document: one value per line, two
/// spaces of indent per nesting level, string contents untouched.
pub fn pretty(compact: &str) -> String {
    let mut rendered = String::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for c in compact.chars() {
        if in_str {
            rendered.push(c);
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_str = false,
                _ => escaped = false,
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                rendered.push(c);
            }
            '{' | '[' => {
                depth += 1;
                rendered.push(c);
                rendered.push('\n');
                rendered.push_str(&"  ".repeat(depth));
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                rendered.push('\n');
                rendered.push_str(&"  ".repeat(depth));
                rendered.push(c);
            }
            ',' => {
                rendered.push(c);
                rendered.push('\n');
                rendered.push_str(&"  ".repeat(depth));
            }
            _ => rendered.push(c),
        }
    }
    rendered.push('\n');
    rendered
}

/// Compares `rendered` against the golden at `path`, or rewrites the
/// golden when `update` is set. The error names the file and the first
/// diverging line.
pub fn check(path: &Path, rendered: &str, update: bool) -> Result<(), String> {
    if update {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden_trace");
        std::fs::write(path, rendered).expect("write trace snapshot");
        return Ok(());
    }
    let name = path.file_name().unwrap().to_string_lossy();
    let golden = std::fs::read_to_string(path).map_err(|_| {
        format!("{name}: snapshot missing; generate with UPDATE_GOLDEN=1 cargo test --test trace")
    })?;
    if golden == rendered {
        return Ok(());
    }
    let line = golden
        .lines()
        .zip(rendered.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| golden.lines().count().min(rendered.lines().count()));
    Err(format!(
        "{name}: provenance drifted at line {}; if intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff",
        line + 1
    ))
}
