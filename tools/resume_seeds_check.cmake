# A resumed crawl must plant the checkpointing run's seeds:
#
#   cmake -DTOOL=build/tools/deepcrawl_crawl -DWORK_DIR=/tmp/resume_seeds \
#         -P tools/resume_seeds_check.cmake
#
# Crawls once uninterrupted and once stopped at a round budget with a
# checkpoint, then resumes that checkpoint three ways. With the same
# --seeds and --seed the resume must exit 0 and write the uninterrupted
# run's trace byte for byte; with another --seeds count, or another
# --seed (the same count of different values), it must be refused with
# an invalid_argument naming --seeds, before any fetch.

if(NOT TOOL OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DTOOL=<deepcrawl_crawl> -DWORK_DIR=<dir> "
    "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(crawl "${TOOL}" --workload=ebay --scale=0.02 --policy=greedy)
set(ckpt "${WORK_DIR}/crawl.ckpt")

# Runs the crawl with `args`; sets `rc` and `out` in the caller.
function(run_crawl)
  execute_process(COMMAND ${crawl} ${ARGN}
    OUTPUT_VARIABLE output ERROR_VARIABLE output
    RESULT_VARIABLE result TIMEOUT 120)
  set(rc "${result}" PARENT_SCOPE)
  set(out "${output}" PARENT_SCOPE)
endfunction()

run_crawl(--seeds=2 --trace-csv=${WORK_DIR}/full.csv)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted crawl exited ${rc}:\n${out}")
endif()

run_crawl(--seeds=2 --max-rounds=200 --checkpoint=${ckpt}
  --checkpoint-every=4)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointing crawl exited ${rc}:\n${out}")
endif()

run_crawl(--seeds=2 --resume-from=${ckpt}
  --trace-csv=${WORK_DIR}/resumed.csv)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "matching resume exited ${rc}:\n${out}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  "${WORK_DIR}/full.csv" "${WORK_DIR}/resumed.csv" RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "the resumed trace differs from the uninterrupted one")
endif()

foreach(mismatch "--seeds=1" "--seeds=7" "--seeds=2 --seed=9")
  separate_arguments(flags UNIX_COMMAND "${mismatch}")
  run_crawl(${flags} --resume-from=${ckpt})
  if(rc EQUAL 0)
    message(FATAL_ERROR "resume with ${mismatch} was accepted:\n${out}")
  endif()
  if(NOT out MATCHES "error: invalid_argument: --seeds")
    message(FATAL_ERROR
      "resume with ${mismatch} failed without naming --seeds:\n${out}")
  endif()
endforeach()
message(STATUS "resume seed check passed")
