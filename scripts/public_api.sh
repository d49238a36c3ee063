#!/usr/bin/env bash
# Lists the public surface of the `oll` library — the facade and the
# crates it links, plus `oll-obs`, which renders what they record — one
# sorted line per public item path, per public inherent associated item,
# and per re-export, into public-api.txt:
#
#   struct oll_core::bravo::Bravo
#   function oll_core::bravo::Bravo::new
#   use oll::Bravo = oll_core::bravo::Bravo
#
# It reads rustdoc's JSON output, which needs a nightly toolchain:
#
#   scripts/public_api.sh [TOOLCHAIN]     # default: nightly
#
# Every crate is documented with its default features, and the facade
# also with `async`, so its async re-exports are listed. CI reruns this
# and fails when the committed listing differs: an API change shows as a
# diff of public-api.txt. Run it from the repository root.
set -euo pipefail

toolchain="${1:-nightly}"
crates=(oll oll-core oll-csnzi oll-util oll-telemetry oll-hazard oll-baselines oll-async oll-obs)
target="$(cargo metadata --offline --format-version 1 --no-deps | jq -r .target_directory)"

for crate in "${crates[@]}"; do
    features=()
    [ "$crate" = oll ] && features=(--features async)
    cargo "+$toolchain" rustdoc --offline --quiet -p "$crate" --lib "${features[@]}" \
        -- -Z unstable-options --output-format json
    jq -r '
        . as $d
        | def item($id): $d.index[$id | tostring];
          def kind: .inner | keys[0];
          def target: $d.paths[.id | tostring].path // null | if . then join("::") else null end;
          def members($p):
              (.inner[kind].impls // [])[] | item(.) | select(.inner.impl.trait == null)
              | .inner.impl.items[] | item(.) | select(.visibility == "public")
              | "\(kind) \($p)::\(.name)";
          def walk($p):
              .inner.module.items[] | item(.) | select(.visibility == "public")
              | if kind == "use" then
                    .inner.use | "use \($p)::\(.name) = \(target // .source)"
                elif kind == "module" then
                    "module \($p)::\(.name)", walk("\($p)::\(.name)")
                else
                    "\(kind) \($p)::\(.name)", members("\($p)::\(.name)")
                end;
          item($d.root) | walk(.name)
    ' "$target/doc/${crate//-/_}.json"
done | LC_ALL=C sort -u >public-api.txt

wc -l <public-api.txt
