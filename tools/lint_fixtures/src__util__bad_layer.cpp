// Fixture: the layer-dag rule.  The filename maps this to src/util/, and
// util sits below core in tools/yoso_layers.json, so the include is an
// upward dependency the committed DAG does not declare, and the include
// line itself is the finding.
//
// FinalistPool is referenced below so the include-hygiene rule cannot also
// fire (the fixture isolates layer-dag).
#include "core/search.h"  // expect-lint: layer-dag

namespace yoso {

std::size_t pool_capacity_probe(const FinalistPool& pool);

}  // namespace yoso
