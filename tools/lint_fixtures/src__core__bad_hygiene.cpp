// Fixture: the include-hygiene rule family, scanned against the real
// repository header index.
//
//  - duplicate include: the same header included twice;
//  - unused include: no symbol the header exports is referenced;
//  - transitive-only dependency: `Genotype` lives in arch/genotype.h,
//    which core/evaluator.h pulls in transitively; using it without a
//    direct include is flagged at the first use site.
#include "core/evaluator.h"
#include "core/pareto.h"
#include "core/pareto.h"  // expect-lint: include-hygiene
#include "util/table.h"   // expect-lint: include-hygiene

namespace yoso {

// Uses TradeoffMetric (pareto.h) and FastEvaluator (evaluator.h) so those
// includes are not ALSO flagged as unused.
double hygiene_probe(TradeoffMetric metric, const FastEvaluator& evaluator,
                     const Genotype& genotype);  // expect-lint: include-hygiene

}  // namespace yoso
