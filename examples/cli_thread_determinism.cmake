# Runs yoso_cli with the same seed at two thread counts and fails unless the
# finalist CSVs are bit-identical.  Guards the DESIGN.md §9 promise at the CLI
# layer: no default (batch size included) may be derived from --threads.
# Two legs: the default exact GP, and the sparse GP with online refinement,
# whose Step-1 fit runs its gram blocks on the pool.
set(exact_flags "")
set(sparse_flags --predictor sparse --inducing-points 37 --refine-every 10)
foreach(leg exact sparse)
  foreach(threads 1 3)
    execute_process(
      COMMAND ${YOSO_CLI}
        --iterations 40 --samples 80 --seed 21 --threads ${threads}
        ${${leg}_flags}
        --finalists ${WORK_DIR}/finalists_${leg}_t${threads}.csv
      RESULT_VARIABLE rc
      OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "yoso_cli (${leg} leg) --threads ${threads} exited with ${rc}")
    endif()
  endforeach()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${WORK_DIR}/finalists_${leg}_t1.csv ${WORK_DIR}/finalists_${leg}_t3.csv
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
      "${leg} leg: finalists differ between --threads 1 and --threads 3 for "
      "the same seed; the thread count is leaking into the search trajectory")
  endif()
endforeach()
