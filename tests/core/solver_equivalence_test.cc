// Golden regression tests for the flat-field solver kernels.
//
// The constants below were dumped (at %.17g, i.e. full double precision)
// from the original nested-vector reference implementation, immediately
// before the solvers were rewritten on flat row-major storage with
// preallocated workspaces. The rewrite is required to be arithmetically
// identical — every expression keeps its original parse tree — so these
// tests pin value, policy, density, and mean-field trajectories to the
// reference within 1e-12 relative error (in practice: bit-identical).
//
// Scenarios:
//   A  full equilibrium, DefaultPaperParams, explicit FPK
//   B  full equilibrium, 81 q-nodes, 120 steps, implicit FPK
//   C  full equilibrium with time-varying workload profiles
//   D  full equilibrium with sharing disabled
//   E  standalone HJB solve against a synthetic mean field
//   F  standalone explicit FPK under a synthetic ramp policy
//   G  standalone implicit FPK under the same policy
//   H  mean-field estimator on a synthetic density/policy pair
//
// Scenarios I–N were dumped the same way from the scalar HjbSolver1D,
// FpkSolver1D and BestResponseLearner sweeps immediately before those
// became one-lane views of the batch solvers; they pin the cases the
// batch-vs-scalar comparisons used to cover:
//   I  full equilibrium, 60 MB content (finer dx, other CFL substeps)
//   J  full equilibrium, 140 MB content
//   K  full equilibrium that exhausts max_iterations unconverged
//   L  SolveFrom an explicit start (shifted density, rate 0.2), 140 MB
//   M  standalone HJB at 60 MB and 140 MB, synthetic mean field
//   N  standalone explicit and implicit FPK at 60 MB and 140 MB
//
// Scenario O was dumped the same way from EvaluatePolicyValue immediately
// before its hand-kept explicit scheme became the HJB batch sweep's
// fixed-control mode:
//   O  policy value V_x at 100 MB and 60 MB, synthetic mean field, a
//      policy ramp in q and t (rows t0, mid and nt − 1, the last one step
//      from the terminal row, where a control read from the wrong time
//      node shows first)
//
// Scenario P was dumped the same way from HjbSolver2D, FpkSolver2D and
// BestResponseLearner2D immediately before their hand-written (h, q)
// stencils became h-lanes of the batch sweeps' coupled mode; the coupled
// scheme matches the unsplit explicit one up to summation order:
//   P  41 q × 15 h × 60 steps at the default channel and at a wide one
//      (ϱ_h = 0.5, ς_h = 2): HJB value and policy at rows t0, mid and
//      nt − 1 against the synthetic mean field, the FPK's final density
//      under a ramp policy in (h, q, t), and the 2-D learner's iteration
//      count, convergence, last two policy residuals, policy, value,
//      final density and prices. Probes are (h, q) nodes, ends included.
//      The value residual history is not pinned: it is a difference of
//      ~1e3 surfaces, and summation order moves it by up to 4e-13
//      relative, too close to the 1e-12 bound.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "core/best_response.h"
#include "core/best_response_2d.h"
#include "core/equilibrium_metrics.h"
#include "core/fpk_solver.h"
#include "core/fpk_solver_2d.h"
#include "core/hjb_solver.h"
#include "core/hjb_solver_2d.h"
#include "core/mean_field_estimator.h"
#include "numerics/density.h"

namespace mfg::core {
namespace {

// scenario A
constexpr std::size_t kProbe101[9] = {0, 13, 25, 38, 50, 63, 75, 88, 100};
constexpr double kAPolicyT0[] = {6.103515625e-05, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375};
constexpr double kAValueT0[] = {2585.2792776739516, 2455.9616107652573, 2280.6821263794359, 1986.724238096328, 1625.3423939719426, 1157.5609153462026, 694.90049855346444, 231.30112300076451, -163.63746244820155};
constexpr double kAValueMid[] = {1116.2757997017534, 1013.038947747412, 882.31587862406445, 760.04658511463265, 678.97854343883637, 588.89729525500161, 504.58936702283654, 412.95244228032203, 328.3090726117145};
constexpr double kADensityFinal[] = {0.018695420464036074, 0.0079409842555423407, 0.0051189665714654721, 0.008606313784367655, 0.00077647923105186986, 6.9430379001708416e-06, 4.1863136800604425e-09, 1.2262416787068333e-14, 4.463096402274313e-22};
constexpr double kAFinalMean = 10.090299690850767;
constexpr double kAPriceT0 = 5.8991065088727517;
constexpr double kAPriceTN = 4.7018059938170156;
constexpr double kARateT0 = 0.9999389647061212;
constexpr double kARateTN = 6.1035156249999993e-05;
constexpr double kASharingTN = 0.49348806846187143;
constexpr std::size_t kAIterations = 13;
constexpr double kALastChange = 0.00079969654518008415;
// scenario B
constexpr std::size_t kProbe81[9] = {0, 10, 20, 30, 40, 50, 60, 70, 80};
constexpr double kBPolicyT0[] = {6.103515625e-05, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375, 0.99993896484375};
constexpr double kBValueT0[] = {2593.7443263564046, 2470.8267182527798, 2288.5463658752501, 2006.4122138411888, 1630.5399023988502, 1180.3940560768006, 694.60274113420314, 234.68091003767128, -187.47704180584154};
constexpr double kBValueMid[] = {1122.9274100010794, 1023.4500623131477, 885.76511021096087, 752.71649885262048, 660.39796601813964, 567.51526314496709, 473.54679515499129, 379.27959150840252, 284.95216329081512};
constexpr double kBDensityFinal[] = {0.026616646935681415, 0.010420120194934077, 0.0061071302463901484, 0.0089893451075388139, 0.0014756718038336719, 7.1581502854682472e-05, 6.8879002985044852e-07, 3.5050025361186895e-10, 1.0247663291728815e-15};
constexpr double kBFinalMean = 10.783938058909978;
constexpr double kBPriceT0 = 5.8991031802126788;
constexpr double kBPriceTN = 4.7156787611782001;
constexpr double kBRateT0 = 0.99993896472069999;
constexpr double kBRateTN = 6.1035156249999993e-05;
constexpr double kBSharingTN = 0.6604655077816286;
constexpr std::size_t kBIterations = 13;
constexpr double kBLastChange = 0.00072022984335806672;
// scenario C
constexpr double kCPolicyT0[] = {3.0517578125e-05, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875};
constexpr double kCValueT0[] = {2766.9278625706388, 2649.7950510900555, 2484.2694314368305, 2205.5738638007238, 1857.9552335794381, 1399.7648485552409, 938.3315437832689, 477.31013006716495, 94.435101545951326};
constexpr double kCValueMid[] = {1389.3870573736192, 1275.3262173346939, 1132.8915581631688, 986.79074753234966, 904.190009773974, 808.69834469650425, 718.00159619537533, 619.06902822720372, 527.62332550159317};
constexpr double kCDensityFinal[] = {0.2035362905664882, 0.0020357325347304328, 0.0029357025199050358, 0.0090753661109060635, 0.00050530048220287971, 2.4471494505888906e-06, 7.7104006333882357e-10, 9.780131805350464e-16, 1.0714566053018401e-23};
constexpr double kCFinalMean = 8.0025369029796067;
constexpr double kCPriceT0 = 5.8991065088727517;
constexpr double kCPriceTN = 4.6600507380595921;
constexpr double kCRateT0 = 0.99996948212818881;
constexpr double kCRateTN = 3.0517578125000007e-05;
constexpr double kCSharingTN = 0.64545284246187695;
constexpr std::size_t kCIterations = 14;
constexpr double kCLastChange = 0.00056501677656928262;
// scenario D
constexpr double kDPolicyT0[] = {0.00048828125, 0.99951171875, 0.99951171875, 0.99951171875, 0.99951171875, 0.99951171875, 0.99951171875, 0.99951171875, 0.99951171875};
constexpr double kDValueT0[] = {2530.9602967508795, 2401.7289118586659, 2226.5859995640121, 1932.8090680944576, 1569.4720252131685, 1082.968798262182, 551.21145875007119, -107.01005978467124, -776.55828569830874};
constexpr double kDValueMid[] = {1081.6470556177685, 975.7085128472952, 815.83879080721306, 538.85353170871758, 206.72378429098424, -199.57609632907148, -571.61637838586535, -947.62997902534391, -1283.6529853045188};
constexpr double kDDensityFinal[] = {0.022552649011452642, 0.0067623629368722344, 6.3022243736897684e-05, 5.0262045204424247e-07, 1.1736918034904293e-09, 6.3899252763713452e-14, 2.3796815531813697e-19, 4.066854686754632e-27, 1.5368871274527662e-36};
constexpr double kDFinalMean = 4.277260821890315;
constexpr double kDPriceT0 = 5.8991065088727517;
constexpr double kDPriceTN = 4.5855452164378061;
constexpr double kDRateT0 = 0.99951171861182175;
constexpr double kDRateTN = 0.00048828124999999984;
constexpr double kDSharingTN = 0;
constexpr std::size_t kDIterations = 10;
constexpr double kDLastChange = 0.00057376850452273143;
// scenario E
constexpr std::size_t kProbe161[9] = {0, 20, 40, 60, 80, 100, 120, 140, 160};
constexpr double kEPolicyT0[] = {0, 0.96452733846215333, 1, 1, 1, 1, 1, 1, 1};
constexpr double kEValueT0[] = {1501.1955028476145, 1393.2046829768069, 1226.1555730765413, 953.6857038500649, 581.64513404709589, 120.68825226832205, -423.78292068816097, -1046.0902365849738, -1736.0291402592361};
constexpr double kEPolicyMid[] = {0, 0.77739032817087828, 1, 1, 1, 1, 1, 1, 1};
constexpr double kEValueMid[] = {502.82150805070194, 423.72227746788997, 275.79954156498349, 24.629877718074248, -313.03393176169385, -699.46786928485619, -1076.2848720901084, -1416.3245009290208, -1743.2814921495417};
// scenario F
constexpr double kFDensityFinal[] = {6.3476992977527555e-05, 0.029181497989916989, 0.047133680337665788, 0.0028106792631610589, 2.7424835505885488e-06, 4.0773690243729029e-12, 3.1957716703049119e-21, 1.1662976853199205e-33, 1.1229206188439762e-49};
constexpr double kFFinalMean = 20.629655369670221;
constexpr double kFMidMean = 42.857355701007492;
// scenario G
constexpr double kGDensityFinal[] = {0.00026030406474134569, 0.03041632875379072, 0.042446878748802264, 0.0057055053027903714, 8.5603824199592649e-05, 7.770334606765394e-08, 9.957407232351649e-13, 1.6370648847195134e-20, 1.2359903466446775e-33};
constexpr double kGFinalMean = 20.778715047278027;
constexpr double kGMidMean = 42.94441984052439;
// scenario H
constexpr double kHRate = 0.65964260354910065;
constexpr double kHPrice = 5.8991065088727517;
constexpr double kHPeer = 69.955325443637577;
constexpr double kHDeltaQ = 69.95531476090008;
constexpr double kHSharerFrac = 2.9322135007859164e-07;
constexpr double kHSharing = 69.955294265029551;

// scenario I
constexpr double kIPolicyT0[] = {0.0001220703125, 0.93006570718767301, 0.9998779296875, 0.9998779296875, 0.9998779296875, 0.9998779296875, 0.9998779296875, 0.9998779296875, 0.9998779296875};
constexpr double kIValueT0[] = {1888.3181403930776, 1779.6611683894887, 1646.8643700459743, 1447.6262317805672, 1213.7379487171193, 918.63537352521303, 629.86048437315446, 334.15010565421363, 81.222044650448595};
constexpr double kIValueMid[] = {877.15561753331258, 791.13757295688276, 689.27765034508343, 587.76975420606925, 512.98159908252057, 435.48328800735129, 363.32184012845283, 284.33941227879387, 211.03125271674227};
constexpr double kIDensityFinal[] = {0.053213914786928426, 0.030979810956900465, 0.016511898518015343, 0.0096649789883674238, 0.0016929645864953138, 3.2829611930328736e-05, 6.8914603554241273e-08, 2.7733749358544352e-12, 7.9221624227342282e-18};
constexpr double kIFinalMean = 6.8393653565069084;
constexpr double kIPriceT0 = 6.1394639053236517;
constexpr double kIPriceTN = 5.436787307130138;
constexpr double kIRateT0 = 0.9998779285468834;
constexpr double kIRateTN = 0.0001220703125;
constexpr double kISharingTN = 0.13914407304368487;
constexpr std::size_t kIIterations = 12;
constexpr double kILastChange = 0.00064048858840304312;
// scenario J
constexpr double kJPolicyT0[] = {3.0517578125e-05, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875, 0.999969482421875};
constexpr double kJValueT0[] = {2839.4964357587728, 2694.3143738887202, 2479.7257194715962, 2091.1278650263644, 1607.1389209450674, 972.59131339797341, 345.92415072804289, -280.14015091160297, -819.8733786569785};
constexpr double kJValueMid[] = {1085.6051200815866, 978.28994094708162, 832.93313485314013, 696.97990775941958, 604.49101961469751, 503.67236175992548, 410.42420586363903, 309.38419940676937, 216.11472797503521};
constexpr double kJDensityFinal[] = {0.0042317146307232654, 0.0071531228862097901, 0.0041981902212999299, 0.0058451609069554312, 0.0005194281053502879, 4.9873026804678384e-06, 2.3665365204324279e-09, 2.7087493117301702e-15, 1.2448261682480241e-23};
constexpr double kJFinalMean = 15.124145703431754;
constexpr double kJPriceT0 = 5.6587491124218525;
constexpr double kJPriceTN = 4.0024829140686347;
constexpr double kJRateT0 = 0.99996948236603911;
constexpr double kJRateTN = 3.0517578125000007e-05;
constexpr double kJSharingTN = 0.76900758181771411;
constexpr std::size_t kJIterations = 14;
constexpr double kJLastChange = 0.00059082570534718659;
// scenario K
constexpr double kKPolicyT0[] = {0.015625, 0.984375, 0.984375, 0.984375, 0.984375, 0.984375, 0.984375, 0.984375, 0.984375};
constexpr double kKValueT0[] = {2595.0527873765059, 2465.6385132583064, 2290.2310080714151, 1996.0645371606527, 1634.1338040807007, 1163.673063679078, 695.15402951345641, 223.59931257455074, -177.85518757221399};
constexpr double kKValueMid[] = {1117.9286525242578, 1014.1526746881692, 881.20350725544392, 755.39640646183523, 671.45543635884962, 578.5621997321764, 491.71833255406108, 397.34549789617182, 310.17849701518378};
constexpr double kKDensityFinal[] = {0.020732791732923733, 0.0083855579312395682, 0.0083953003099803292, 0.0062409326740617563, 0.00045207638668442443, 2.945402544237927e-06, 1.1340325306630417e-09, 1.7028611572138407e-15, 2.2266052143193815e-23};
constexpr double kKFinalMean = 9.784953474631191;
constexpr double kKPriceT0 = 5.8991065088727517;
constexpr double kKPriceTN = 4.6956990694926244;
constexpr double kKRateT0 = 0.98437499986926447;
constexpr double kKRateTN = 0.015625;
constexpr double kKSharingTN = 0.45009333697635701;
constexpr std::size_t kKIterations = 5;
constexpr double kKLastChange = 0.088444943008876287;
// scenario L
constexpr double kLPolicyT0[] = {1.9073486328125001e-07, 0.99999923706054683, 0.99999923706054683, 0.99999923706054683, 0.99999923706054683, 0.99999923706054683, 0.99999923706054683, 0.99999923706054683, 0.99999923706054683};
constexpr double kLValueT0[] = {2064.5391755612973, 1941.1100914418862, 1759.1954757449794, 1482.6855452947059, 1296.6804329992735, 1125.0246029627965, 963.09308225022403, 787.06086839903048, 624.5145548483622};
constexpr double kLValueMid[] = {959.56004891212865, 864.86134467804573, 819.21847373526884, 814.17986777361421, 788.61609617367355, 757.6993746155182, 728.88521894897008, 697.64725781309608, 668.81057724773393};
constexpr double kLDensityFinal[] = {0.049681500517211985, 2.3540591459004217e-08, 3.4265246067608087e-05, 0.0085056189746864335, 0.00026640352245657016, 2.0365373641092587e-06, 7.5703148262090973e-09, 4.2306371623349793e-12, 2.0593696288361143e-16};
constexpr double kLFinalMean = 9.2411371720445104;
constexpr double kLPriceT0 = 4.5412508875781477;
constexpr double kLPriceTN = 3.8848227434408904;
constexpr double kLRateT0 = 0.99166872475601409;
constexpr double kLRateTN = 1.907348632812499e-07;
constexpr double kLSharingTN = 0.47286119995257958;
constexpr std::size_t kLIterations = 20;
constexpr double kLLastChange = 0.00086943198640332398;
// scenario M60
constexpr double kM60PolicyT0[] = {0, 0.78208618646197015, 1, 1, 1, 1, 1, 1, 1};
constexpr double kM60ValueT0[] = {900.63217348836554, 813.08518558779963, 688.33804686605208, 508.2815952870809, 268.67068029223725, -26.985033510418635, -373.30108809300771, -764.4654116299057, -1192.3207316920652};
constexpr double kM60PolicyMid[] = {0, 0.63546740623888509, 1, 1, 1, 1, 1, 1, 1};
constexpr double kM60ValueMid[] = {300.93253230112737, 235.91921206337608, 126.53046595098203, -33.006166939095039, -240.56362727047929, -477.97374699850025, -718.53565475263201, -944.49323062541907, -1157.8370245177296};
// scenario M140
constexpr double kM140PolicyT0[] = {0, 1, 1, 1, 1, 1, 1, 1, 1};
constexpr double kM140ValueT0[] = {2102.4128449475725, 1975.8678959071397, 1766.7652759898706, 1399.8594146455284, 901.00805595856684, 284.51009529580728, -441.50006067377296, -1266.4855498774443, -2173.1029800720953};
constexpr double kM140PolicyMid[] = {0, 0.84614332184237362, 1, 1, 1, 1, 1, 1, 1};
constexpr double kM140ValueMid[] = {704.55433190240069, 613.78184461644082, 434.16989465983062, 106.47926524125531, -321.2221288404462, -797.65590669108065, -1239.5162760616681, -1637.5389606377523, -2029.9049674257042};
// scenario NExp60
constexpr double kNExp60DensityFinal[] = {0.00042062484667555402, 0.049424423180237063, 0.076574692836843747, 0.0057557383585931671, 1.3929681729885017e-05, 2.7372270767228727e-10, 2.4691099997646436e-17, 1.1502554449357664e-26, 1.6482502676528646e-38};
constexpr double kNExp60FinalMean = 12.380229877350057;
constexpr double kNExp60MidMean = 25.714406873413196;
// scenario NExp140
constexpr double kNExp140DensityFinal[] = {2.0889739871675637e-05, 0.020725958076476047, 0.033909738188919347, 0.0018819342885476812, 1.3124649786000269e-06, 6.5720928170917599e-13, 5.2673312298956663e-23, 3.5987206466589323e-37, 7.7832923976728919e-56};
constexpr double kNExp140FinalMean = 28.880272198504041;
constexpr double kNExp140MidMean = 60.000301801324078;
// scenario NImp60
constexpr double kNImp60DensityFinal[] = {0.0013393904787318202, 0.050572383254184977, 0.069386420626159989, 0.010419745247744182, 0.00019633647643300765, 2.9619159237406998e-07, 1.1874080348193284e-11, 2.6331611009090391e-18, 1.3607175456674998e-28};
constexpr double kNImp60FinalMean = 12.472738293664868;
constexpr double kNImp60MidMean = 25.766645919779691;
// scenario NImp140
constexpr double kNImp140DensityFinal[] = {9.4406694253200939e-05, 0.021733830621441224, 0.030483060098305821, 0.0039658664168364666, 5.5595978174237267e-05, 4.3038302448991342e-08, 3.778897808336693e-13, 2.3056631064087985e-21, 4.9420537465355493e-36};
constexpr double kNImp140FinalMean = 29.087077328079157;
constexpr double kNImp140MidMean = 60.122191361141084;
// scenario O100
constexpr double kO100ValueT0[] = {1451.0641313134838, 1317.2323046791116, 994.54765166088657, 461.56885021230994, -162.11628931309608, -803.19272025975795, -1426.2977835828851, -2022.2509074240322, -2600.2808047840481};
constexpr double kO100ValueMid[] = {465.70761669517492, 396.83576096792342, 198.22136631675207, -155.29168642824339, -541.19235001659251, -889.22647826209891, -1209.9748279334717, -1521.9714703884117, -1832.534442828457};
constexpr double kO100ValueLast[] = {4.1762086969770325, 1.4824516832730872, -5.5264869119945015, -14.167034803828905, -21.200008781008961, -27.658169125393794, -34.025859024004262, -40.403492659620348, -46.808764630079949};
// scenario O60
constexpr double kO60ValueT0[] = {848.855074591635, 755.44978645123717, 558.9196367896601, 260.69727930002171, -102.92696704083787, -494.25483553518154, -889.94698770454625, -1278.831714337935, -1658.4563047648389};
constexpr double kO60ValueMid[] = {264.14037446975863, 213.00911367968178, 90.425843939225103, -103.28215886037532, -334.94883483062347, -568.28606462276264, -790.08956270475994, -1002.1704898021087, -1209.1595896893541};
constexpr double kO60ValueLast[] = {2.0960830628083675, -0.060494863295797716, -4.027729945927998, -9.4131145831608514, -14.713823543933616, -19.583399262978492, -24.205620824490232, -28.738440939967454, -33.256119270148716};
// scenario P: (h, q) probe nodes, flat index h·nq + q on the 41-node q axis.
constexpr std::size_t kNq2D = 41;
constexpr std::size_t kProbe2D[9] = {
    0 * kNq2D + 0,   0 * kNq2D + 40,  14 * kNq2D + 0,
    14 * kNq2D + 40, 7 * kNq2D + 20,  1 * kNq2D + 1,
    13 * kNq2D + 39, 3 * kNq2D + 10,  11 * kNq2D + 30};
// scenario P
constexpr double kPHjbValueT0[] = {1476.4762440783757, -1787.9728975271221, 1538.510958569633, -1726.9623014085514, 562.5565744443395, 1457.4211825926252, -1591.474971401705, 1207.1420508312456, -436.21565445542626};
constexpr double kPHjbPolicyT0[] = {0, 1, 0, 1, 1, 0.30304970688081312, 1, 1, 1};
constexpr double kPHjbValueMid[] = {482.56662777791433, -1767.5037388702738, 527.95766035243946, -1722.8974851795474, -325.12007909099867, 471.18144192842783, -1660.5522892963422, 256.90651572559125, -1059.1795160145264};
constexpr double kPHjbPolicyMid[] = {0, 1, 0, 1, 1, 0.14094279391500067, 1, 1, 1};
constexpr double kPHjbValueLast[] = {7.6520218661394228, -70.934296114923313, 10.017008914511889, -68.67819708919734, -30.308218283241338, 7.5343527815248414, -66.866840172692093, -6.1616915859373105, -49.538980589880197};
constexpr double kPHjbPolicyLast[] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
constexpr double kPFpkDensityFinal[] = {3.9382787147737491e-06, 2.4605784250021495e-19, 1.141514300736192e-05, 4.4033224917507964e-20, 0.0047399925907703885, 9.36946882347343e-05, 5.2593087460062547e-18, 0.0079665524206036127, 5.1191131055517938e-09};
constexpr std::size_t kPIterations = 13;
constexpr bool kPConverged = true;
constexpr double kPPolicyChange[] = {0.0013999051702940912, 0.00076301313908555546};
constexpr double kPEqPolicyT0[] = {6.103515625e-05, 0.99993896484375, 6.103515625e-05, 0.99993896484375, 0.99993896484375, 0.36299283277097655, 0.99993896484375, 0.99993896484375, 0.99993896484375};
constexpr double kPEqPolicyMid[] = {6.103515625e-05, 0.66586103687978593, 6.103515625e-05, 0.66585387384137251, 0.64299607495611921, 0.27040024940408641, 0.66584049028403436, 0.99993896484375, 0.66419902245592155};
constexpr double kPEqValueT0[] = {2566.9766330191492, -220.18290497505421, 2628.973160559528, -160.41055774535758, 1622.2643252844164, 2545.0095170188347, -80.029935931029144, 2273.9064424091816, 714.13465758806092};
constexpr double kPEqDensityFinal[] = {6.3453328925167123e-05, 1.1843869448945146e-15, 6.7309982952354252e-05, 1.1844734280367704e-15, 0.010421559484974098, 0.0014291347360241334, 5.0897467470994034e-14, 0.0014660023238566701, 3.6507959650446815e-07};
constexpr double kPEqPriceT0 = 5.8990755316409444;
constexpr double kPEqPriceTN = 4.7137016991052159;
// scenario P (wide channel)
constexpr double kPWideHjbValueT0[] = {1242.3731331661941, -2016.5038801359224, 1688.2326147389317, -1581.1588620603968, 559.42983248935457, 1263.9531583098965, -1464.0733256131446, 1088.9690791848852, -348.78515671831906};
constexpr double kPWideHjbPolicyT0[] = {0, 1, 0, 1, 1, 0.28233191700707605, 1, 1, 1};
constexpr double kPWideHjbValueMid[] = {336.71085061386282, -1910.6648943744592, 616.19384779883194, -1636.3582331007456, -326.03903849533378, 353.34475926193494, -1584.4074787122622, 188.20883817490849, -1006.2004764956332};
constexpr double kPWideHjbPolicyMid[] = {0, 1, 0, 1, 1, 0.10048597258866319, 1, 1, 1};
constexpr double kPWideHjbValueLast[] = {1.466264894494671, -76.835249394239739, 13.400606919676466, -65.450386487744424, -30.30909010922506, 2.6356626618717307, -64.002854956124722, -8.8563817727419121, -47.487322747098361};
constexpr double kPWideHjbPolicyLast[] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
constexpr double kPWideFpkDensityFinal[] = {1.1252866628520394e-05, 1.1806117908872797e-18, 4.4552350702039637e-05, 1.1097586656265114e-19, 0.00072031524645712317, 0.00015523261532807424, 7.5543500256512824e-18, 0.0050503916765483403, 2.7951979001514003e-09};
constexpr std::size_t kPWideIterations = 13;
constexpr bool kPWideConverged = true;
constexpr double kPWidePolicyChange[] = {0.0014410339382139314, 0.00078329441088353935};
constexpr double kPWideEqPolicyT0[] = {6.103515625e-05, 0.99993896484375, 6.103515625e-05, 0.99993896484375, 0.99993896484375, 0.34690820136426515, 0.99993896484375, 0.99993896484375, 0.99993896484375};
constexpr double kPWideEqPolicyMid[] = {6.103515625e-05, 0.66634169970218904, 6.103515625e-05, 0.66629614580892138, 0.64362390557631333, 0.24339349929398213, 0.6662816821533103, 0.99993896484375, 0.66438433153126053};
constexpr double kPWideEqValueT0[] = {2333.0723481185983, -443.39887853636708, 2778.6149634945182, -18.390452794394442, 1619.1609505897288, 2351.477617420258, 44.138443353009556, 2155.3239663904365, 800.19542360488299};
constexpr double kPWideEqDensityFinal[] = {0.0001725220826677005, 4.0244816776728067e-15, 0.0002611635002304253, 4.0269842219256401e-15, 0.0015731376646306592, 0.0024284150517586713, 9.5184246700827585e-14, 0.0010058372698145586, 2.27833286108753e-07};
constexpr double kPWideEqPriceT0 = 5.8990755316409444;
constexpr double kPWideEqPriceTN = 4.7138187098494848;
// Relative 1e-12 comparison: densities reach ~1e-49 in the tails and
// values reach ~2.5e3, so a fixed absolute tolerance fits neither end.
void ExpectGolden(double actual, double expected, const char* what,
                  std::size_t j) {
  const double tol = 1e-12 * std::max(1.0, std::fabs(expected));
  EXPECT_NEAR(actual, expected, tol) << what << " probe " << j;
}

void ExpectRow(std::span<const double> row, const double (&expected)[9],
               const std::size_t (&probe)[9], const char* what) {
  for (std::size_t j = 0; j < 9; ++j) {
    ExpectGolden(row[probe[j]], expected[j], what, j);
  }
}

struct EquilibriumGolden {
  const double (&policy_t0)[9];
  const double (&value_t0)[9];
  const double (&value_mid)[9];
  const double (&density_final)[9];
  double final_mean;
  double price_t0;
  double price_tn;
  double rate_t0;
  double rate_tn;
  double sharing_tn;
  std::size_t iterations;
  double last_change;
};

void CheckEquilibrium(const MfgParams& params, const Equilibrium& eq,
                      const std::size_t (&probe)[9],
                      const EquilibriumGolden& golden) {
  const std::size_t nt = params.grid.num_time_steps;
  ExpectRow(eq.hjb.policy[0], golden.policy_t0, probe, "policy t0");
  ExpectRow(eq.hjb.value[0], golden.value_t0, probe, "value t0");
  ExpectRow(eq.hjb.value[nt / 2], golden.value_mid, probe, "value mid");
  ExpectRow(eq.fpk.densities[nt].values(), golden.density_final, probe,
            "density final");
  ExpectGolden(eq.fpk.densities[nt].Mean(), golden.final_mean,
               "final mean", 0);
  ExpectGolden(eq.mean_field[0].price, golden.price_t0, "price t0", 0);
  ExpectGolden(eq.mean_field[nt].price, golden.price_tn, "price tN", 0);
  ExpectGolden(eq.mean_field[0].mean_caching_rate, golden.rate_t0,
               "rate t0", 0);
  ExpectGolden(eq.mean_field[nt].mean_caching_rate, golden.rate_tn,
               "rate tN", 0);
  ExpectGolden(eq.mean_field[nt].sharing_benefit, golden.sharing_tn,
               "sharing tN", 0);
  EXPECT_EQ(eq.iterations, golden.iterations);
  ASSERT_FALSE(eq.policy_change_history.empty());
  ExpectGolden(eq.policy_change_history.back(), golden.last_change,
               "last change", 0);
}

void CheckEquilibrium(const MfgParams& params,
                      const std::size_t (&probe)[9],
                      const EquilibriumGolden& golden) {
  auto learner = BestResponseLearner::Create(params).value();
  CheckEquilibrium(params, learner.Solve().value(), probe, golden);
}

TEST(SolverEquivalenceTest, PaperDefaultsEquilibrium) {
  CheckEquilibrium(DefaultPaperParams(), kProbe101,
                   {kAPolicyT0, kAValueT0, kAValueMid, kADensityFinal,
                    kAFinalMean, kAPriceT0, kAPriceTN, kARateT0, kARateTN,
                    kASharingTN, kAIterations, kALastChange});
}

TEST(SolverEquivalenceTest, ImplicitFpkCoarseGridEquilibrium) {
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = 81;
  params.grid.num_time_steps = 120;
  params.grid.implicit_fpk = true;
  CheckEquilibrium(params, kProbe81,
                   {kBPolicyT0, kBValueT0, kBValueMid, kBDensityFinal,
                    kBFinalMean, kBPriceT0, kBPriceTN, kBRateT0, kBRateTN,
                    kBSharingTN, kBIterations, kBLastChange});
}

TEST(SolverEquivalenceTest, WorkloadProfilesEquilibrium) {
  MfgParams params = DefaultPaperParams();
  const std::size_t nt = params.grid.num_time_steps;
  params.popularity_profile.resize(nt + 1);
  params.timeliness_profile.resize(nt + 1);
  params.requests_profile.resize(nt + 1);
  for (std::size_t n = 0; n <= nt; ++n) {
    const double s = static_cast<double>(n) / static_cast<double>(nt);
    params.popularity_profile[n] = 0.2 + 0.6 * s;
    params.timeliness_profile[n] = 2.0 + 1.5 * s;
    params.requests_profile[n] = 8.0 + 6.0 * s;
  }
  CheckEquilibrium(params, kProbe101,
                   {kCPolicyT0, kCValueT0, kCValueMid, kCDensityFinal,
                    kCFinalMean, kCPriceT0, kCPriceTN, kCRateT0, kCRateTN,
                    kCSharingTN, kCIterations, kCLastChange});
}

TEST(SolverEquivalenceTest, SharingDisabledEquilibrium) {
  MfgParams params = DefaultPaperParams();
  params.sharing_enabled = false;
  CheckEquilibrium(params, kProbe101,
                   {kDPolicyT0, kDValueT0, kDValueMid, kDDensityFinal,
                    kDFinalMean, kDPriceT0, kDPriceTN, kDRateT0, kDRateTN,
                    kDSharingTN, kDIterations, kDLastChange});
}

std::vector<MeanFieldQuantities> SyntheticMeanField(std::size_t nt) {
  std::vector<MeanFieldQuantities> mf(nt + 1);
  for (std::size_t n = 0; n <= nt; ++n) {
    const double s = static_cast<double>(n) / static_cast<double>(nt);
    mf[n].price = 5.0 - 2.0 * s;
    mf[n].mean_peer_remaining = 60.0 - 30.0 * s;
    mf[n].sharing_benefit = 1.5 * s;
    mf[n].mean_caching_rate = 0.4 + 0.2 * s;
    mf[n].sharer_fraction = 0.3 + 0.4 * s;
    mf[n].case3_fraction = (1.0 - mf[n].sharer_fraction) *
                           (1.0 - mf[n].sharer_fraction);
    mf[n].delta_q = 10.0 * (1.0 - s);
  }
  return mf;
}

TEST(SolverEquivalenceTest, StandaloneHjbSyntheticMeanField) {
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = 161;
  params.grid.num_time_steps = 100;
  auto solver = HjbSolver1D::Create(params).value();
  auto solution =
      solver.Solve(SyntheticMeanField(params.grid.num_time_steps)).value();
  ExpectRow(solution.policy[0], kEPolicyT0, kProbe161, "E policy t0");
  ExpectRow(solution.value[0], kEValueT0, kProbe161, "E value t0");
  ExpectRow(solution.policy[50], kEPolicyMid, kProbe161, "E policy mid");
  ExpectRow(solution.value[50], kEValueMid, kProbe161, "E value mid");
}

void CheckStandaloneFpk(bool implicit, const double (&density_final)[9],
                        double final_mean, double mid_mean,
                        double content_size = 100.0) {
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = 161;
  params.grid.num_time_steps = 100;
  params.grid.implicit_fpk = implicit;
  params.content_size = content_size;
  auto solver = FpkSolver1D::Create(params).value();
  auto initial = solver.MakeInitialDensity().value();
  const std::size_t nt = params.grid.num_time_steps;
  const std::size_t nq = params.grid.num_q_nodes;
  std::vector<std::vector<double>> policy(nt + 1, std::vector<double>(nq));
  for (std::size_t n = 0; n <= nt; ++n) {
    for (std::size_t i = 0; i < nq; ++i) {
      policy[n][i] =
          0.2 +
          0.6 * static_cast<double>(i) / static_cast<double>(nq - 1) +
          0.1 * static_cast<double>(n) / static_cast<double>(nt);
    }
  }
  auto solution = solver.Solve(initial, policy).value();
  ExpectRow(solution.densities[nt].values(), density_final, kProbe161,
            "density final");
  ExpectGolden(solution.densities[nt].Mean(), final_mean, "final mean", 0);
  ExpectGolden(solution.densities[nt / 2].Mean(), mid_mean, "mid mean", 0);
}

TEST(SolverEquivalenceTest, StandaloneFpkExplicitRampPolicy) {
  CheckStandaloneFpk(false, kFDensityFinal, kFFinalMean, kFMidMean);
}

TEST(SolverEquivalenceTest, StandaloneFpkImplicitRampPolicy) {
  CheckStandaloneFpk(true, kGDensityFinal, kGFinalMean, kGMidMean);
}

TEST(SolverEquivalenceTest, SmallContentEquilibrium) {
  MfgParams params = DefaultPaperParams();
  params.content_size = 60.0;
  CheckEquilibrium(params, kProbe101,
                   {kIPolicyT0, kIValueT0, kIValueMid, kIDensityFinal,
                    kIFinalMean, kIPriceT0, kIPriceTN, kIRateT0, kIRateTN,
                    kISharingTN, kIIterations, kILastChange});
}

TEST(SolverEquivalenceTest, LargeContentEquilibrium) {
  MfgParams params = DefaultPaperParams();
  params.content_size = 140.0;
  CheckEquilibrium(params, kProbe101,
                   {kJPolicyT0, kJValueT0, kJValueMid, kJDensityFinal,
                    kJFinalMean, kJPriceT0, kJPriceTN, kJRateT0, kJRateTN,
                    kJSharingTN, kJIterations, kJLastChange});
}

TEST(SolverEquivalenceTest, ExhaustedIterationsEquilibrium) {
  MfgParams params = DefaultPaperParams();
  params.learning.max_iterations = 5;
  const Equilibrium eq =
      BestResponseLearner::Create(params).value().Solve().value();
  EXPECT_FALSE(eq.converged);
  EXPECT_EQ(eq.policy_change_history.size(), kKIterations);
  EXPECT_EQ(eq.value_change_history.size(), kKIterations);
  CheckEquilibrium(params, eq, kProbe101,
                   {kKPolicyT0, kKValueT0, kKValueMid, kKDensityFinal,
                    kKFinalMean, kKPriceT0, kKPriceTN, kKRateT0, kKRateTN,
                    kKSharingTN, kKIterations, kKLastChange});
}

TEST(SolverEquivalenceTest, ExplicitStartEquilibrium) {
  MfgParams params = DefaultPaperParams();
  params.content_size = 140.0;
  const auto initial =
      numerics::Density1D::TruncatedGaussian(params.MakeQGrid().value(),
                                             0.3 * params.content_size,
                                             0.1 * params.content_size)
          .value();
  auto learner = BestResponseLearner::Create(params).value();
  CheckEquilibrium(params, learner.SolveFrom(initial, 0.2).value(), kProbe101,
                   {kLPolicyT0, kLValueT0, kLValueMid, kLDensityFinal,
                    kLFinalMean, kLPriceT0, kLPriceTN, kLRateT0, kLRateTN,
                    kLSharingTN, kLIterations, kLLastChange});
}

void CheckStandaloneHjb(double content_size, const double (&policy_t0)[9],
                        const double (&value_t0)[9],
                        const double (&policy_mid)[9],
                        const double (&value_mid)[9]) {
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = 161;
  params.grid.num_time_steps = 100;
  params.content_size = content_size;
  auto solver = HjbSolver1D::Create(params).value();
  auto solution =
      solver.Solve(SyntheticMeanField(params.grid.num_time_steps)).value();
  ExpectRow(solution.policy[0], policy_t0, kProbe161, "policy t0");
  ExpectRow(solution.value[0], value_t0, kProbe161, "value t0");
  ExpectRow(solution.policy[50], policy_mid, kProbe161, "policy mid");
  ExpectRow(solution.value[50], value_mid, kProbe161, "value mid");
}

TEST(SolverEquivalenceTest, StandaloneHjbContentSizes) {
  CheckStandaloneHjb(60.0, kM60PolicyT0, kM60ValueT0, kM60PolicyMid,
                     kM60ValueMid);
  CheckStandaloneHjb(140.0, kM140PolicyT0, kM140ValueT0, kM140PolicyMid,
                     kM140ValueMid);
}

TEST(SolverEquivalenceTest, StandaloneFpkContentSizes) {
  CheckStandaloneFpk(false, kNExp60DensityFinal, kNExp60FinalMean,
                     kNExp60MidMean, 60.0);
  CheckStandaloneFpk(false, kNExp140DensityFinal, kNExp140FinalMean,
                     kNExp140MidMean, 140.0);
  CheckStandaloneFpk(true, kNImp60DensityFinal, kNImp60FinalMean,
                     kNImp60MidMean, 60.0);
  CheckStandaloneFpk(true, kNImp140DensityFinal, kNImp140FinalMean,
                     kNImp140MidMean, 140.0);
}

void CheckPolicyValue(double content_size, const double (&value_t0)[9],
                      const double (&value_mid)[9],
                      const double (&value_last)[9]) {
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = 161;
  params.grid.num_time_steps = 100;
  params.content_size = content_size;
  const std::size_t nt = params.grid.num_time_steps;
  const std::size_t nq = params.grid.num_q_nodes;
  std::vector<std::vector<double>> policy(nt + 1, std::vector<double>(nq));
  for (std::size_t n = 0; n <= nt; ++n) {
    for (std::size_t i = 0; i < nq; ++i) {
      policy[n][i] =
          0.1 + 0.5 * static_cast<double>(i) / static_cast<double>(nq - 1) +
          0.3 * static_cast<double>(n) / static_cast<double>(nt);
    }
  }
  const auto value =
      EvaluatePolicyValue(params, SyntheticMeanField(nt), policy).value();
  ExpectRow(value[0], value_t0, kProbe161, "value t0");
  ExpectRow(value[nt / 2], value_mid, kProbe161, "value mid");
  ExpectRow(value[nt - 1], value_last, kProbe161, "value last");
}

TEST(SolverEquivalenceTest, PolicyValueRampPolicy) {
  CheckPolicyValue(100.0, kO100ValueT0, kO100ValueMid, kO100ValueLast);
  CheckPolicyValue(60.0, kO60ValueT0, kO60ValueMid, kO60ValueLast);
}

MfgParams TwoDParams(bool wide_channel) {
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = kNq2D;
  params.grid.num_h_nodes = 15;
  params.grid.num_time_steps = 60;
  params.learning.max_iterations = 25;
  if (wide_channel) {
    params.channel.rho = 0.5;
    params.channel.varsigma = 2.0;
  }
  return params;
}

struct TwoDGolden {
  const double (&hjb_value_t0)[9];
  const double (&hjb_policy_t0)[9];
  const double (&hjb_value_mid)[9];
  const double (&hjb_policy_mid)[9];
  const double (&hjb_value_last)[9];
  const double (&hjb_policy_last)[9];
  const double (&fpk_density_final)[9];
  std::size_t iterations;
  bool converged;
  const double (&policy_change)[2];
  const double (&eq_policy_t0)[9];
  const double (&eq_policy_mid)[9];
  const double (&eq_value_t0)[9];
  const double (&eq_density_final)[9];
  double eq_price_t0;
  double eq_price_tn;
};

void CheckTwoD(bool wide_channel, const TwoDGolden& golden) {
  const MfgParams params = TwoDParams(wide_channel);
  const std::size_t nt = params.grid.num_time_steps;

  auto hjb = HjbSolver2D::Create(params).value();
  const auto solution = hjb.Solve(SyntheticMeanField(nt)).value();
  ExpectRow(solution.value[0], golden.hjb_value_t0, kProbe2D, "P value t0");
  ExpectRow(solution.policy[0], golden.hjb_policy_t0, kProbe2D,
            "P policy t0");
  ExpectRow(solution.value[nt / 2], golden.hjb_value_mid, kProbe2D,
            "P value mid");
  ExpectRow(solution.policy[nt / 2], golden.hjb_policy_mid, kProbe2D,
            "P policy mid");
  ExpectRow(solution.value[nt - 1], golden.hjb_value_last, kProbe2D,
            "P value last");
  ExpectRow(solution.policy[nt - 1], golden.hjb_policy_last, kProbe2D,
            "P policy last");

  auto fpk = FpkSolver2D::Create(params).value();
  const std::size_t nh = fpk.h_grid().size();
  const std::size_t nq = fpk.q_grid().size();
  numerics::TimeField2D policy(nt + 1, nh * nq);
  for (std::size_t n = 0; n <= nt; ++n) {
    for (std::size_t ih = 0; ih < nh; ++ih) {
      for (std::size_t iq = 0; iq < nq; ++iq) {
        policy[n][ih * nq + iq] =
            0.2 +
            0.5 * static_cast<double>(iq) / static_cast<double>(nq - 1) +
            0.1 * static_cast<double>(ih) / static_cast<double>(nh - 1) +
            0.1 * static_cast<double>(n) / static_cast<double>(nt);
      }
    }
  }
  const auto density =
      fpk.Solve(fpk.MakeInitialDensity().value(), policy).value();
  ExpectRow(density.densities[nt], golden.fpk_density_final, kProbe2D,
            "P density final");

  const Equilibrium2D eq =
      BestResponseLearner2D::Create(params).value().Solve().value();
  EXPECT_EQ(eq.iterations, golden.iterations);
  EXPECT_EQ(eq.converged, golden.converged);
  const std::size_t k = eq.policy_change_history.size();
  ASSERT_GE(k, 2u);
  ExpectGolden(eq.policy_change_history[k - 2], golden.policy_change[0],
               "P policy change", 0);
  ExpectGolden(eq.policy_change_history[k - 1], golden.policy_change[1],
               "P policy change", 1);
  ExpectRow(eq.hjb.policy[0], golden.eq_policy_t0, kProbe2D,
            "P eq policy t0");
  ExpectRow(eq.hjb.policy[nt / 2], golden.eq_policy_mid, kProbe2D,
            "P eq policy mid");
  ExpectRow(eq.hjb.value[0], golden.eq_value_t0, kProbe2D, "P eq value t0");
  ExpectRow(eq.fpk.densities[nt], golden.eq_density_final, kProbe2D,
            "P eq density final");
  ExpectGolden(eq.mean_field[0].price, golden.eq_price_t0, "P price t0", 0);
  ExpectGolden(eq.mean_field[nt].price, golden.eq_price_tn, "P price tN", 0);
}

TEST(SolverEquivalenceTest, TwoDimensionalDefaultChannel) {
  CheckTwoD(false, {kPHjbValueT0, kPHjbPolicyT0, kPHjbValueMid,
                    kPHjbPolicyMid, kPHjbValueLast, kPHjbPolicyLast,
                    kPFpkDensityFinal, kPIterations, kPConverged,
                    kPPolicyChange, kPEqPolicyT0, kPEqPolicyMid,
                    kPEqValueT0, kPEqDensityFinal, kPEqPriceT0,
                    kPEqPriceTN});
}

TEST(SolverEquivalenceTest, TwoDimensionalWideChannel) {
  CheckTwoD(true, {kPWideHjbValueT0, kPWideHjbPolicyT0, kPWideHjbValueMid,
                   kPWideHjbPolicyMid, kPWideHjbValueLast,
                   kPWideHjbPolicyLast, kPWideFpkDensityFinal,
                   kPWideIterations, kPWideConverged, kPWidePolicyChange,
                   kPWideEqPolicyT0, kPWideEqPolicyMid, kPWideEqValueT0,
                   kPWideEqDensityFinal, kPWideEqPriceT0, kPWideEqPriceTN});
}

TEST(SolverEquivalenceTest, MeanFieldEstimatorSyntheticDensity) {
  MfgParams params = DefaultPaperParams();
  auto estimator = MeanFieldEstimator::Create(params).value();
  auto fpk = FpkSolver1D::Create(params).value();
  auto density = fpk.MakeInitialDensity().value();
  std::vector<double> policy(params.grid.num_q_nodes);
  for (std::size_t i = 0; i < policy.size(); ++i) {
    policy[i] = 0.1 + 0.8 * static_cast<double>(i) /
                          static_cast<double>(policy.size() - 1);
  }
  auto mf = estimator.Estimate(density, policy).value();
  ExpectGolden(mf.mean_caching_rate, kHRate, "H rate", 0);
  ExpectGolden(mf.price, kHPrice, "H price", 0);
  ExpectGolden(mf.mean_peer_remaining, kHPeer, "H peer", 0);
  ExpectGolden(mf.delta_q, kHDeltaQ, "H delta_q", 0);
  ExpectGolden(mf.sharer_fraction, kHSharerFrac, "H sharer fraction", 0);
  ExpectGolden(mf.sharing_benefit, kHSharing, "H sharing", 0);
}

}  // namespace
}  // namespace mfg::core
