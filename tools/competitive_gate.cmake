# The competitive guarantee, end to end through the real CLI:
#
#   cmake -DTOOL=build/tools/deepcrawl_crawl -P tools/competitive_gate.cmake
#
# Generates a small adversarial greedy-trap instance (24 buckets of 4
# records under 8 decoy buckets of width 32), crawls it to full coverage
# once with opt-rank and once with greedy, and reads each crawl's
# "competitive: queries=Q opt=OPT ratio=R" line. Fails when the descent
# leaves its 2x bound (opt-rank Q > 2 OPT) or when the greedy gap
# collapses (greedy Q < 4x opt-rank Q, i.e. greedy's cost/OPT ratio
# under four times opt-rank's), since a trap that stops trapping greedy
# would silently void the lower-bound property suite. Both bounds are
# checked on the integer counts, so no ratio is rounded first.

if(NOT TOOL)
  message(FATAL_ERROR
    "usage: cmake -DTOOL=<deepcrawl_crawl> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(adversarial --workload=adversarial --target-coverage=1 --adv-buckets=24
  --adv-records=4 --adv-decoy-buckets=8 --adv-decoy-width=32)

# Crawls with `policy`; sets `<prefix>_queries`, `<prefix>_opt` and
# `<prefix>_ratio` in the caller.
function(crawl_competitive prefix policy)
  execute_process(COMMAND "${TOOL}" ${adversarial} --policy=${policy}
    OUTPUT_VARIABLE out ERROR_VARIABLE out RESULT_VARIABLE rc TIMEOUT 120)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--policy=${policy} crawl exited ${rc}:\n${out}")
  endif()
  if(NOT out MATCHES
      "\n  competitive: queries=([0-9]+) opt=([0-9]+) ratio=([0-9.]+)")
    message(FATAL_ERROR
      "competitive gate: no ratio line in the ${policy} crawl's output:\n"
      "${out}")
  endif()
  set(${prefix}_queries "${CMAKE_MATCH_1}" PARENT_SCOPE)
  set(${prefix}_opt "${CMAKE_MATCH_2}" PARENT_SCOPE)
  set(${prefix}_ratio "${CMAKE_MATCH_3}" PARENT_SCOPE)
endfunction()

crawl_competitive(rank opt-rank)
crawl_competitive(greedy greedy)
message(STATUS "opt-rank cost/OPT: ${rank_ratio}  "
  "greedy cost/OPT: ${greedy_ratio}")
if(NOT rank_opt EQUAL greedy_opt OR rank_opt EQUAL 0)
  message(FATAL_ERROR "competitive gate: the two crawls report different "
    "or zero OPT (${rank_opt} and ${greedy_opt})")
endif()
math(EXPR rank_bound "2 * ${rank_opt}")
if(rank_queries GREATER rank_bound)
  message(FATAL_ERROR "competitive gate: opt-rank ratio ${rank_ratio} > 2.0 "
    "(${rank_queries} queries against OPT ${rank_opt})")
endif()
math(EXPR greedy_floor "4 * ${rank_queries}")
if(greedy_queries LESS greedy_floor)
  message(FATAL_ERROR "competitive gate: greedy gap collapsed (greedy "
    "${greedy_ratio} < 4x opt-rank ${rank_ratio})")
endif()
message(STATUS "competitive gate: bound holds, separation intact")
