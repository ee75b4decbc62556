# Field pin: run a command in a fresh directory, then require named
# fields of the JSON file it writes to equal those of a committed
# record. Timings and machine facts are left out of FIELDS, so a
# re-run on any box compares only what the program computes.
#
#   cmake -DWORKDIR=<dir> -DOUTPUT=<file written in WORKDIR>
#         -DEXPECT=<committed file> "-DFIELDS=<path>;<path>..."
#         "-DCOMMAND=<program>;<args>..." -P pin_fields.cmake
#
# A path names members and array indices joined by '/'; '*' stands for
# every element of an array, whose length must match too:
# "campaign_scaling/runs/*/detected". A change that means to move a
# pinned field regenerates the committed record in the same change.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND ${COMMAND}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${COMMAND} exited with ${rc}")
endif()
file(READ "${EXPECT}" want)
file(READ "${WORKDIR}/${OUTPUT}" got)

# Compare the field at @p resolved (a list of members and indices)
# followed by the unresolved path components in ARGN.
function(compare_field resolved)
    string(REPLACE ";" "/" where "${resolved}")
    list(LENGTH ARGN left)
    if(left EQUAL 0)
        string(JSON w GET "${want}" ${resolved})
        string(JSON g GET "${got}" ${resolved})
        if(NOT w STREQUAL g)
            message(SEND_ERROR "${OUTPUT}: ${where} is ${g}, pinned ${w}")
        endif()
        return()
    endif()
    list(POP_FRONT ARGN head)
    if(NOT head STREQUAL "*")
        compare_field("${resolved};${head}" ${ARGN})
        return()
    endif()
    string(JSON nw LENGTH "${want}" ${resolved})
    string(JSON ng LENGTH "${got}" ${resolved})
    if(NOT nw EQUAL ng)
        message(SEND_ERROR "${OUTPUT}: ${where} has ${ng} elements, "
                           "pinned ${nw}")
        return()
    endif()
    if(nw EQUAL 0)
        return()
    endif()
    math(EXPR last "${nw} - 1")
    foreach(i RANGE ${last})
        compare_field("${resolved};${i}" ${ARGN})
    endforeach()
endfunction()

foreach(field IN LISTS FIELDS)
    string(REPLACE "/" ";" path "${field}")
    list(POP_FRONT path first)
    compare_field("${first}" ${path})
endforeach()
